package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
)

// failingWriter counts its Write calls and fails every one, like a full
// disk.
type failingWriter struct{ writes int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("no space left on device")
}

// tracedRun is a small traced bitcoin run and its JSON-lines trace.
func tracedRun(t *testing.T) (*btsim.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	res, err := btsim.Run("bitcoin", btsim.WithN(4), btsim.WithRounds(40), btsim.WithSeed(1),
		btsim.WithTrace(&buf, btsim.TraceOptions{JSONL: true}))
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestEmitReportsWriteError: a write that fails is an error for the raw
// trace and for the lane view alike, and each is a single Write.
func TestEmitReportsWriteError(t *testing.T) {
	res, raw := tracedRun(t)
	for _, lanes := range []bool{false, true} {
		w := &failingWriter{}
		if err := emit(w, res, raw, lanes); err == nil {
			t.Errorf("lanes=%v: emit into a failing writer returned nil", lanes)
		}
		if w.writes != 1 {
			t.Errorf("lanes=%v: emit called Write %d times, want 1", lanes, w.writes)
		}
	}
}

// TestEmitLanes: the lane view has the one scheduler lane and ends with
// the run's digests.
func TestEmitLanes(t *testing.T) {
	res, raw := tracedRun(t)
	var out bytes.Buffer
	if err := emit(&out, res, raw, true); err != nil {
		t.Fatal(err)
	}
	view := out.String()
	if strings.Count(view, "peak ") < 2 || !strings.Contains(view, "scheduler     |") {
		t.Fatalf("lane view lacks the scheduler lane:\n%s", view)
	}
	if !strings.Contains(view, "digest "+res.Digest()) {
		t.Fatalf("lane view does not end with the run digest:\n%s", view)
	}
}
