package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Higher: true, Bound: 0.10}
	at := func(v, spread float64) stat { return stat{Value: v, Min: v - spread, Max: v + spread, N: 5} }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b stat
		want string
	}{
		{"same", lower, at(1, 0.01), at(1.005, 0.01), verdictOK},
		{"slower within bound", lower, at(1, 0.01), at(1.08, 0.01), verdictOK},
		{"slower beyond bound", lower, at(1, 0.01), at(1.2, 0.01), verdictWorse},
		{"faster", lower, at(1, 0.01), at(0.5, 0.01), verdictOK},
		{"throughput fell", higher, at(1000, 5), at(850, 5), verdictWorse},
		{"throughput rose", higher, at(1000, 5), at(1500, 5), verdictOK},
		{"noise wider than the bound", lower, at(1, 0.2), at(1.05, 0.2), verdictUnresolved},
		{"missing", lower, at(1, 0.01), stat{}, verdictUnresolved},
		// One disturbed iteration widens the range, not the quartiles.
		{"outlier", lower, samples(1, 1.01, 0.99, 1, 1.01, 1.9), samples(1, 1.01, 0.99, 1, 1.01, 0.99), verdictOK},
	} {
		if got, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func samples(v ...float64) stat { return medianStat("s", v) }

func TestCompareRoundTrip(t *testing.T) {
	mk := func(wall float64) result {
		e2e := map[string]stat{}
		for _, d := range endToEnd {
			e2e[d.Name] = stat{Unit: d.Unit, Value: 10, Min: 9.9, Max: 10.1, N: 5}
		}
		e2e["wall_s"] = stat{Unit: "s", Value: wall, Min: wall * 0.99, Max: wall * 1.01, N: 5}
		return result{Env: environment{NProc: 2}, Workloads: []workloadResult{{Name: "flood_n64", EndToEnd: e2e}}}
	}
	dir := t.TempDir()
	write := func(name string, r result) string {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	read := func(path string) result {
		r, err := readResult(path)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, same, slow := read(write("a.json", mk(1))), read(write("b.json", mk(1.02))), read(write("c.json", mk(1.5)))

	var out bytes.Buffer
	if !compare(&out, a, same) {
		t.Errorf("equal runs did not compare ok:\n%s", out.String())
	}
	out.Reset()
	if compare(&out, a, slow) {
		t.Error("a 50% slower run compared ok")
	}
	if !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("no worse row in:\n%s", out.String())
	}
	if _, err := readResult(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("reading an absent file succeeded")
	}
}
