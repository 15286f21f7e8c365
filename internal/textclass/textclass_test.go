package textclass

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestClassifySeedCategories(t *testing.T) {
	c := New()
	tests := []struct {
		text string
		want string
	}{
		{text: "massive ddos flood hits provider", want: "ddos"},
		{text: "customer database leak after security breach", want: "data-breach"},
		{text: "phishing lure spoofed login page steals credential", want: "phishing"},
		{text: "ransomware trojan encrypts files and installs backdoor", want: "malware"},
		{text: "attackers exploit rce vulnerability cve in struts", want: "vulnerability-exploitation"},
		{text: "ssh brute force password guessing from botnet", want: "brute-force"},
		{text: "sunny weather and a championship win downtown", want: Irrelevant},
	}
	for _, tt := range tests {
		t.Run(tt.text, func(t *testing.T) {
			pred := c.Classify(tt.text)
			if pred.Category != tt.want {
				t.Fatalf("Classify(%q) = %s, want %s", tt.text, pred, tt.want)
			}
			if pred.Relevant != (tt.want != Irrelevant) {
				t.Fatalf("relevance tag wrong: %+v", pred)
			}
			if pred.Confidence <= 0 || pred.Confidence > 1 {
				t.Fatalf("confidence out of range: %v", pred.Confidence)
			}
		})
	}
}

func TestClassifyMultiLanguageKeywords(t *testing.T) {
	c := New()
	tests := []struct {
		text string
		want string
	}{
		{text: "ataque de denegación de servicio", want: "ddos"},                       // Spanish
		{text: "fuite de données clients", want: "data-breach"},                        // French
		{text: "datenleck bei großem anbieter", want: "data-breach"},                   // German
		{text: "vazamento de dados pessoais", want: "data-breach"},                     // Portuguese
		{text: "vulnérabilité critique exploitée", want: "vulnerability-exploitation"}, // French
	}
	for _, tt := range tests {
		if got := c.Classify(tt.text); got.Category != tt.want {
			t.Errorf("Classify(%q) = %s, want %s", tt.text, got, tt.want)
		}
	}
}

func TestClassifyEmptyText(t *testing.T) {
	c := New()
	for _, text := range []string{"", "   ", "a b c"} { // single-char tokens dropped
		pred := c.Classify(text)
		if text != "a b c" && (pred.Category != Irrelevant || pred.Confidence != 0) {
			t.Errorf("Classify(%q) = %+v", text, pred)
		}
	}
}

func TestKeywordsReported(t *testing.T) {
	c := New()
	pred := c.Classify("new ransomware campaign drops trojan")
	if pred.Category != "malware" {
		t.Fatalf("category = %s", pred.Category)
	}
	joined := strings.Join(pred.Keywords, ",")
	if !strings.Contains(joined, "ransomware") || !strings.Contains(joined, "trojan") {
		t.Fatalf("keywords = %v", pred.Keywords)
	}
}

func TestTrainingShiftsPrediction(t *testing.T) {
	c := New()
	const text = "suspicious zorgblat activity detected"
	before := c.Classify(text)
	for i := 0; i < 8; i++ {
		c.Train("malware", "zorgblat activity detected on endpoint")
	}
	after := c.Classify(text)
	if after.Category != "malware" {
		t.Fatalf("after training = %s (before %s)", after, before)
	}
}

func TestEvaluateOnHeldOut(t *testing.T) {
	c := New()
	heldOut := map[string][]string{
		"ddos":        {"dns amplification flood observed", "botnet launches dos attack"},
		"data-breach": {"leaked dump of stolen records", "breach exposed customer data"},
		"malware":     {"worm spreads ransomware payload", "spyware keylogger found"},
		Irrelevant:    {"earnings and weather news roundup", "music festival schedule published"},
	}
	accuracy, confusion := c.Evaluate(heldOut)
	if accuracy < 0.8 {
		t.Fatalf("held-out accuracy %.2f too low; confusion: %v", accuracy, confusion)
	}
	if _, ok := confusion["ddos"]; !ok {
		t.Fatal("confusion matrix missing class")
	}
	if acc, _ := c.Evaluate(nil); acc != 0 {
		t.Fatal("empty evaluation non-zero")
	}
}

// TestClassesSorted: the built-in corpus trains at least seven classes,
// and Classify breaks a tie between equally likely ones by class name.
func TestClassesSorted(t *testing.T) {
	c := New()
	if len(c.classDocs) < 7 {
		t.Fatalf("corpus trains %d classes, want at least 7", len(c.classDocs))
	}
	tie := &Classifier{
		tokenCount: map[string]map[string]int{},
		classTotal: map[string]int{},
		classDocs:  map[string]int{},
		vocab:      map[string]bool{},
		seeds:      map[string]string{},
	}
	tie.Train("zeta", "outage")
	tie.Train("alpha", "outage")
	if got := tie.Classify("outage").Category; got != "alpha" {
		t.Fatalf("tie went to %q, want alpha", got)
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("DDoS-Attack: 100% outage, naïve café!")
	want := []string{"ddos", "attack", "100", "outage", "naïve", "café"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
}

func TestConfidenceBoundsQuick(t *testing.T) {
	c := New()
	f := func(text string) bool {
		pred := c.Classify(text)
		return pred.Confidence >= 0 && pred.Confidence <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredictionString(t *testing.T) {
	p := Prediction{Category: "ddos", Relevant: true, Confidence: 0.9}
	if got := p.String(); !strings.Contains(got, "ddos") || !strings.Contains(got, "relevant") {
		t.Fatalf("String() = %q", got)
	}
}
