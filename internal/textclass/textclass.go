// Package textclass implements the natural-language enhancement of §II-A:
// "the use of natural language processing techniques to identify threats
// from the use of keywords that typically indicate a threat in major
// languages; such as ddos, security breach, leak and more. This
// information can be used to tag OSINT data as relevant or irrelevant …
// The prediction confidence of the classifier can be included in the data
// sent to SIEMs."
//
// The classifier is a multinomial naive Bayes over word tokens, seeded
// with a built-in multi-language threat-keyword corpus (English, Spanish,
// French, German, Portuguese) and trainable with additional examples. It
// returns a threat category, a relevant/irrelevant tag and a calibrated
// confidence.
package textclass

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Irrelevant is the class for text carrying no threat signal.
const Irrelevant = "irrelevant"

// Prediction is the classifier's output for one text.
type Prediction struct {
	// Category is the most likely threat category, or Irrelevant.
	Category string `json:"category"`
	// Relevant tags the text as threat-related.
	Relevant bool `json:"relevant"`
	// Confidence is the posterior probability of Category (0–1).
	Confidence float64 `json:"confidence"`
	// Keywords lists the matched seed keywords, most significant first.
	Keywords []string `json:"keywords,omitempty"`
}

// Classifier is a trainable multinomial naive Bayes text classifier.
// Safe for concurrent use.
type Classifier struct {
	mu         sync.RWMutex
	tokenCount map[string]map[string]int // class → token → count
	classDocs  map[string]int            // class → training documents
	classTotal map[string]int            // class → total tokens
	vocab      map[string]bool
	totalDocs  int
	seeds      map[string]string // seed keyword → class
}

// New builds a classifier pre-trained on the built-in keyword corpus.
func New() *Classifier {
	c := &Classifier{
		tokenCount: make(map[string]map[string]int),
		classDocs:  make(map[string]int),
		classTotal: make(map[string]int),
		vocab:      make(map[string]bool),
		seeds:      make(map[string]string),
	}
	for class, docs := range seedCorpus {
		for _, doc := range docs {
			c.Train(class, doc)
		}
	}
	for class, words := range seedKeywords {
		for _, w := range words {
			c.seeds[w] = class
			// Keywords are strong evidence: train them several times.
			for i := 0; i < 3; i++ {
				c.Train(class, w)
			}
		}
	}
	return c
}

// Train adds one labelled example.
func (c *Classifier) Train(class, text string) {
	tokens := Tokenize(text)
	if len(tokens) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tokenCount[class] == nil {
		c.tokenCount[class] = make(map[string]int)
	}
	c.classDocs[class]++
	c.totalDocs++
	for _, tok := range tokens {
		c.tokenCount[class][tok]++
		c.classTotal[class]++
		c.vocab[tok] = true
	}
}

// Classify predicts the threat category of a text. Empty or untokenizable
// text is irrelevant with zero confidence.
func (c *Classifier) Classify(text string) Prediction {
	tokens := Tokenize(text)
	if len(tokens) == 0 {
		return Prediction{Category: Irrelevant, Confidence: 0}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.totalDocs == 0 {
		return Prediction{Category: Irrelevant, Confidence: 0}
	}

	vocabSize := float64(len(c.vocab))
	type scored struct {
		class string
		logp  float64
	}
	scores := make([]scored, 0, len(c.classDocs))
	for class := range c.classDocs {
		logp := math.Log(float64(c.classDocs[class]) / float64(c.totalDocs))
		denom := float64(c.classTotal[class]) + vocabSize
		for _, tok := range tokens {
			count := float64(c.tokenCount[class][tok])
			logp += math.Log((count + 1) / denom)
		}
		scores = append(scores, scored{class: class, logp: logp})
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].logp != scores[j].logp {
			return scores[i].logp > scores[j].logp
		}
		return scores[i].class < scores[j].class
	})

	// Softmax over log-probabilities for a calibrated confidence.
	best := scores[0]
	var denom float64
	for _, s := range scores {
		denom += math.Exp(s.logp - best.logp)
	}
	confidence := 1 / denom

	pred := Prediction{
		Category:   best.class,
		Relevant:   best.class != Irrelevant,
		Confidence: confidence,
	}
	for _, tok := range tokens {
		if class, ok := c.seeds[tok]; ok && class == best.class {
			pred.Keywords = append(pred.Keywords, tok)
		}
	}
	sort.Strings(pred.Keywords)
	return pred
}

// Evaluate scores the classifier on labelled examples, returning accuracy
// and the per-class confusion counts.
func (c *Classifier) Evaluate(examples map[string][]string) (accuracy float64, confusion map[string]map[string]int) {
	confusion = make(map[string]map[string]int)
	total, correct := 0, 0
	for want, docs := range examples {
		for _, doc := range docs {
			got := c.Classify(doc).Category
			if confusion[want] == nil {
				confusion[want] = make(map[string]int)
			}
			confusion[want][got]++
			total++
			if got == want {
				correct++
			}
		}
	}
	if total == 0 {
		return 0, confusion
	}
	return float64(correct) / float64(total), confusion
}

// Tokenize lower-cases and splits on non-alphanumeric runes, dropping
// single-character tokens.
func Tokenize(text string) []string {
	fields := strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	out := fields[:0]
	for _, f := range fields {
		if len(f) > 1 {
			out = append(out, f)
		}
	}
	return out
}

// String summarizes a prediction.
func (p Prediction) String() string {
	tag := "irrelevant"
	if p.Relevant {
		tag = "relevant"
	}
	return fmt.Sprintf("%s (%s, confidence %.2f)", p.Category, tag, p.Confidence)
}

// seedKeywords is the multi-language threat-keyword inventory: the words
// that "typically indicate a threat in major languages" (§II-A).
var seedKeywords = map[string][]string{
	"ddos": {
		"ddos", "dos", "denial", "amplification", "botnet", "flood",
		"denegación", "déni", "verweigerung", "negação",
	},
	"data-breach": {
		"breach", "leak", "leaked", "exfiltration", "stolen", "dump",
		"exposed", "violación", "fuite", "datenleck", "vazamento", "brecha",
	},
	"phishing": {
		"phishing", "spearphishing", "credential", "spoofed", "lure",
		"suplantación", "hameçonnage", "fishing",
	},
	"malware": {
		"malware", "trojan", "ransomware", "worm", "spyware", "dropper",
		"infostealer", "backdoor", "keylogger", "rootkit", "virus",
		"rançongiciel", "schadsoftware",
	},
	"vulnerability-exploitation": {
		"vulnerability", "exploit", "exploitation", "cve", "rce",
		"overflow", "injection", "zeroday", "patch", "unpatched",
		"vulnerabilidad", "vulnérabilité", "schwachstelle", "vulnerabilidade",
	},
	"brute-force": {
		"bruteforce", "brute", "password", "guessing", "dictionary",
		"fuerza", "bruta",
	},
}

// seedCorpus provides short labelled documents so the class priors and
// co-occurring context words are grounded.
var seedCorpus = map[string][]string{
	"ddos": {
		"massive ddos attack takes down dns provider",
		"botnet launches amplification flood against bank",
		"ataque de denegación de servicio contra el portal",
	},
	"data-breach": {
		"security breach exposes customer records",
		"attackers leak stolen database dump online",
		"millions of credentials exposed after breach",
	},
	"phishing": {
		"phishing campaign uses spoofed invoice lure",
		"spearphishing emails target finance staff credentials",
	},
	"malware": {
		"new ransomware strain encrypts hospital systems",
		"trojan dropper installs backdoor and keylogger",
	},
	"vulnerability-exploitation": {
		"attackers exploit critical rce vulnerability in web framework",
		"unpatched cve under active exploitation patch now",
		"remote code execution via crafted post body",
	},
	"brute-force": {
		"ssh brute force attempts spike from residential proxies",
		"password guessing attack locks out accounts",
	},
	Irrelevant: {
		"quarterly earnings beat analyst expectations",
		"team wins championship after dramatic final",
		"new coffee shop opens downtown with live music",
		"weather forecast sunny with light winds",
		"release notes improve performance and fix typos",
		"conference schedule published keynote at nine",
	},
}
