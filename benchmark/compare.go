package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// verdict of one workload × end-to-end metric between a baseline run a
// and a candidate run b.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares b with a for one metric. When the two runs' spreads
// overlap by more than the bound (as a share of a's median), the spread
// is wider than the difference the bound is meant to catch, and the pair
// is unresolved rather than unchanged. Otherwise b is worse when its
// median is worse than a's by more than the bound.
func judge(d metricDef, a, b stat) (verdict string, worseBy float64) {
	if a.N == 0 || b.N == 0 || a.Value == 0 {
		return verdictUnresolved, 0
	}
	worseBy = (b.Value - a.Value) / a.Value
	if d.Higher {
		worseBy = -worseBy
	}
	aLo, aHi := spread(a)
	bLo, bHi := spread(b)
	overlap := min(aHi, bHi) - max(aLo, bLo)
	switch {
	case overlap/a.Value > d.Bound:
		return verdictUnresolved, worseBy
	case worseBy > d.Bound:
		return verdictWorse, worseBy
	}
	return verdictOK, worseBy
}

// spread is the interval a stat's samples fall in: first to third
// quartile, so that one disturbed iteration does not widen it, or the
// whole range when there are too few samples for quartiles.
func spread(s stat) (lo, hi float64) {
	if len(s.Samples) < 4 {
		return s.Min, s.Max
	}
	v := append([]float64(nil), s.Samples...)
	sort.Float64s(v)
	at := func(q float64) float64 {
		i := q * float64(len(v)-1)
		lo := int(i)
		return v[lo] + (v[min(lo+1, len(v)-1)]-v[lo])*(i-float64(lo))
	}
	return at(0.25), at(0.75)
}

func readResult(path string) (result, error) {
	var r result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compare prints one row per workload × end-to-end metric and reports
// whether every row is ok.
func compare(w io.Writer, a, b result) bool {
	if a.Env != b.Env {
		fmt.Fprintf(w, "note: environments differ: %+v vs %+v\n", a.Env, b.Env)
	}
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	allOK := true
	fmt.Fprintf(w, "%-18s %-13s %12s %12s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-18s missing from the second file\n", wa.Name)
			allOK = false
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			v, by := judge(d, sa, sb)
			allOK = allOK && v == verdictOK
			fmt.Fprintf(w, "%-18s %-13s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n",
				wa.Name, d.Name, sa.Value, sb.Value, by*100, d.Bound*100, v)
		}
	}
	return allOK
}
