package correlate

import (
	"testing"

	"github.com/caisplatform/caisp/internal/normalize"
)

// TestAttributeType: every normalized IoC type maps onto the MISP
// attribute type it is stored as, and a type without one onto "text".
func TestAttributeType(t *testing.T) {
	for typ, want := range map[normalize.IoCType]string{
		normalize.TypeIPv4:      "ip-dst",
		normalize.TypeIPv6:      "ip-dst",
		normalize.TypeCIDR:      "ip-dst",
		normalize.TypeDomain:    "domain",
		normalize.TypeURL:       "url",
		normalize.TypeEmail:     "email-dst",
		normalize.TypeMD5:       "md5",
		normalize.TypeSHA1:      "sha1",
		normalize.TypeSHA256:    "sha256",
		normalize.TypeSHA512:    "sha512",
		normalize.TypeCVE:       "vulnerability",
		normalize.TypeFilename:  "filename",
		normalize.TypeUnknown:   "text",
		normalize.IoCType(""):   "text",
		normalize.IoCType("as"): "text",
	} {
		if got := AttributeType(typ); got != want {
			t.Errorf("AttributeType(%q) = %q, want %q", typ, got, want)
		}
	}
}
