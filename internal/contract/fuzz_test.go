package contract

import (
	"encoding/json"
	"testing"
)

// FuzzValidateJSON feeds raw bytes to the validator under each of the
// five contracts: `fhreport validate` reads JSON files from anywhere,
// so no input may panic it. A document that validates must validate
// again once decoded and re-marshalled: the contract judges the
// document, not its spelling. Seeds live in
// testdata/fuzz/FuzzValidateJSON: a valid document of every kind and a
// truncated one.
func FuzzValidateJSON(f *testing.F) {
	kinds := []Kind{KindSummary, KindManifest, KindQuality, KindHashes, KindPareto}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, k := range kinds {
			if ValidateJSON(k, data) != nil {
				continue
			}
			var doc any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("%s: a valid document does not decode: %v", k, err)
			}
			b, err := json.Marshal(doc)
			if err != nil {
				t.Fatalf("%s: a valid document does not re-marshal: %v", k, err)
			}
			if err := ValidateJSON(k, b); err != nil {
				t.Fatalf("%s: a valid document fails once re-marshalled: %v", k, err)
			}
		}
	})
}
