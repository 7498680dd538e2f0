package metrics

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"
)

// NamedValue is one (name, value) pair in a snapshot section.
type NamedValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSnapshot is a histogram's frozen state: cumulative-style bucket
// counts per upper bound, plus an implicit +Inf bucket at the end.
type HistSnapshot struct {
	Name   string  `json:"name"`
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"` // len(Bounds)+1
	N      int64   `json:"n"`
	Sum    int64   `json:"sum"`
}

// Quantile estimates the q-th quantile at bucket resolution: the upper
// bound of the first bucket at which the cumulative count reaches
// q·N. Observations in the +Inf overflow bucket report the largest
// finite bound (the best available lower estimate). q is clamped to
// [0, 1]; an empty histogram reports 0.
func (hs *HistSnapshot) Quantile(q float64) int64 {
	if hs.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(hs.N)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range hs.Counts {
		cum += c
		if cum >= rank {
			if i < len(hs.Bounds) {
				return hs.Bounds[i]
			}
			break
		}
	}
	if len(hs.Bounds) > 0 {
		return hs.Bounds[len(hs.Bounds)-1]
	}
	return hs.Sum / hs.N
}

// Series is the sampled gauge table: one column per probe, one row per
// virtual-time sample boundary.
type Series struct {
	SampleEvery int64    `json:"sampleEvery"`
	Cols        []string `json:"cols"`
	Rows        []Row    `json:"rows"`
}

// Snapshot is a run's frozen metric state, split into a deterministic
// core (Counters, Hists, Series, Stats — identical across runs; covered
// by Digest) and the excluded Timing section (wall-clock measurements).
type Snapshot struct {
	Counters []NamedValue   `json:"counters"`
	Hists    []HistSnapshot `json:"hists,omitempty"`
	Series   Series         `json:"series"`
	Stats    []NamedValue   `json:"stats,omitempty"`
	Timing   []NamedValue   `json:"timing,omitempty"`
}

// Snapshot freezes the registry: takes a final sample at the current
// virtual time (if a clock is attached and the last row is older),
// and folds counters, vec totals/maxima and final probe values into the
// Counters section sorted by name.
func (r *Registry) Snapshot() *Snapshot {
	if r.clock != nil {
		now := r.clock()
		if n := len(r.rows); n == 0 || r.rows[n-1].VT < now {
			r.sampleRow(now)
		}
	}
	s := &Snapshot{Timing: r.timing}
	for _, c := range r.counters {
		s.Counters = append(s.Counters, NamedValue{Name: c.name, Value: c.v})
	}
	for _, cv := range r.vecs {
		s.Counters = append(s.Counters,
			NamedValue{Name: cv.name, Value: cv.Total()},
			NamedValue{Name: cv.name + ".max", Value: cv.Max()})
	}
	for i := range r.probes {
		var last int64
		if n := len(r.rows); n > 0 {
			last = r.rows[n-1].Vals[i]
		} else {
			last = r.probes[i].fn()
		}
		s.Counters = append(s.Counters, NamedValue{Name: r.probes[i].name + ".last", Value: last})
		var peak int64
		for _, row := range r.rows {
			if row.Vals[i] > peak {
				peak = row.Vals[i]
			}
		}
		s.Counters = append(s.Counters, NamedValue{Name: r.probes[i].name + ".peak", Value: peak})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	for _, h := range r.hists {
		h.mu.Lock()
		hs := HistSnapshot{
			Name:   h.name,
			Bounds: append([]int64(nil), h.bounds...),
			Counts: append([]int64(nil), h.counts...),
			N:      h.n,
			Sum:    h.sum,
		}
		h.mu.Unlock()
		s.Hists = append(s.Hists, hs)
	}
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].Name < s.Hists[j].Name })
	s.Series.SampleEvery = r.every
	for _, p := range r.probes {
		s.Series.Cols = append(s.Series.Cols, p.name)
	}
	s.Series.Rows = r.rows
	return s
}

// FoldStats merges a legacy string→int stats map into the Stats
// section, sorted by key so the fold is deterministic.
func (s *Snapshot) FoldStats(stats map[string]int) {
	keys := make([]string, 0, len(stats))
	for k := range stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		s.Stats = append(s.Stats, NamedValue{Name: k, Value: int64(stats[k])})
	}
}

// Value looks up a counter (or stats entry) by name; ok reports
// whether it exists.
func (s *Snapshot) Value(name string) (int64, bool) {
	for _, nv := range s.Counters {
		if nv.Name == name {
			return nv.Value, true
		}
	}
	for _, nv := range s.Stats {
		if nv.Name == name {
			return nv.Value, true
		}
	}
	return 0, false
}

// DigestInto folds the deterministic core sections — Counters, Hists,
// Series, Stats — into h. Timing is deliberately excluded: it differs
// across machines. Everything folded here must be byte-identical for
// the same (config, seed).
func (s *Snapshot) DigestInto(h hash.Hash) {
	for _, nv := range s.Counters {
		fmt.Fprintf(h, "C%s=%d;", nv.Name, nv.Value)
	}
	for _, hs := range s.Hists {
		fmt.Fprintf(h, "H%s b=%v c=%v n=%d s=%d;", hs.Name, hs.Bounds, hs.Counts, hs.N, hs.Sum)
	}
	fmt.Fprintf(h, "S every=%d cols=%v;", s.Series.SampleEvery, s.Series.Cols)
	for _, row := range s.Series.Rows {
		fmt.Fprintf(h, "R%d=%v;", row.VT, row.Vals)
	}
	for _, nv := range s.Stats {
		fmt.Fprintf(h, "T%s=%d;", nv.Name, nv.Value)
	}
}

// Digest returns the fnv64a digest of the deterministic core.
func (s *Snapshot) Digest() string {
	h := fnv.New64a()
	s.DigestInto(h)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Summary flattens the snapshot into a map for embedding in bench
// JSON: counters and stats by name, series peaks as "peak:<col>", and
// timing entries as "timing:<name>".
func (s *Snapshot) Summary() map[string]int64 {
	out := make(map[string]int64, len(s.Counters)+len(s.Stats)+len(s.Timing))
	for _, nv := range s.Counters {
		out[nv.Name] = nv.Value
	}
	for _, nv := range s.Stats {
		out["stat:"+nv.Name] = nv.Value
	}
	for _, nv := range s.Timing {
		out["timing:"+nv.Name] = nv.Value
	}
	for _, hs := range s.Hists {
		out["hist:"+hs.Name+".n"] = hs.N
		out["hist:"+hs.Name+".sum"] = hs.Sum
	}
	return out
}
