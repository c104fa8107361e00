package scenario

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScenarioLoad feeds arbitrary bytes to the loader: Read followed by
// ToConfig must never panic, and a file they accept must survive a
// json.Marshal round trip with the same decoded config, which is what
// lets iochaos -emit write a schedule that replays as the run it found.
// core.Build stays out: a fuzzed node count would size a huge machine.
// The corpus is every checked-in scenario except shards-1k.json, whose
// 1,000 stages would slow every execution.
func FuzzScenarioLoad(f *testing.F) {
	err := filepath.WalkDir("../../scenarios", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".json" || d.Name() == "shards-1k.json" {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil {
			f.Add(data)
		}
		return err
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		cfg, err := file.ToConfig()
		if err != nil {
			return
		}
		out, err := json.Marshal(file)
		if err != nil {
			t.Fatalf("marshal an accepted file: %v", err)
		}
		again, err := Read(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("re-read %s: %v", out, err)
		}
		cfg2, err := again.ToConfig()
		if err != nil {
			t.Fatalf("re-convert %s: %v", out, err)
		}
		if !reflect.DeepEqual(cfg, cfg2) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", cfg, cfg2)
		}
	})
}
