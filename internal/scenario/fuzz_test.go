package scenario

import (
	"encoding/json"
	"testing"
)

// FuzzScenarioSpec fuzzes the matrix loader: Parse must never panic on
// arbitrary bytes, and any document it accepts must survive a
// validate-then-reencode round trip — re-parsing our own encoding
// succeeds and is a fixpoint (so committed scenario files can be
// rewritten mechanically without drift).
func FuzzScenarioSpec(f *testing.F) {
	f.Add([]byte(`{"name":"m","cells":[{"name":"fig13","experiment":"fig13"}]}`))
	f.Add([]byte(`{"name":"m","seed":7,"defaults":{"scale":"quick","requests":100},` +
		`"sweep":[{"base":{"experiment":"replay","policy":"synthetic"},` +
		`"workload":["hm_0","prxy_0"],"shards":[1,2]}]}`))
	f.Add([]byte(`{"name":"m","cells":[{"name":"x","experiment":"replay",` +
		`"fault":{"stuck_rate":0.01},"obs":{"metrics":true}}],` +
		`"golden":{"x":"abcd"}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"name":"m"} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		enc1, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("accepted document does not re-encode: %v", err)
		}
		m2, err := Parse(enc1)
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, enc1)
		}
		enc2, err := json.Marshal(m2)
		if err != nil {
			t.Fatal(err)
		}
		if string(enc1) != string(enc2) {
			t.Fatalf("re-encode not a fixpoint:\n%s\n%s", enc1, enc2)
		}
		// Expansion on arbitrary accepted input must fail cleanly or
		// yield validated cells — never panic.
		if cells, err := m.Expand(); err == nil {
			for _, c := range cells {
				if err := c.Validate(); err != nil {
					t.Fatalf("Expand emitted invalid cell %q: %v", c.Name, err)
				}
			}
		}
	})
}
