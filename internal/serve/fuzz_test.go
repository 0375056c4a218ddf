package serve

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecodeConfig feeds arbitrary request bodies to decodeConfig. It
// must never panic. A body it accepts must yield a configuration that
// passes Validate and that Normalize leaves unchanged, and its key must
// be the configuration's Key, also after the configuration is encoded
// and decoded again.
func FuzzDecodeConfig(f *testing.F) {
	for _, c := range malformedConfigs() {
		f.Add([]byte(c.body))
	}
	valid, _ := json.Marshal(testBase(1))
	f.Add(valid)
	f.Fuzz(func(t *testing.T, body []byte) {
		cfg, key, err := decodeConfig(bytes.NewReader(body))
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted %q, but Validate says %v", body, err)
		}
		if n := cfg.Normalize(); n != cfg {
			t.Fatalf("accepted %q as %+v, which normalizes to %+v", body, cfg, n)
		}
		if k := cfg.Key(); k != key {
			t.Fatalf("accepted %q with key %s, but its Key is %s", body, key, k)
		}
		again, err := json.Marshal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg2, key2, err := decodeConfig(bytes.NewReader(again))
		if err != nil || cfg2 != cfg || key2 != key {
			t.Fatalf("re-decoding %s gave %+v, key %s, err %v; want %+v, key %s", again, cfg2, key2, err, cfg, key)
		}
	})
}
