package btsim_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/btsim"
	_ "repro/btsim/systems"
	"repro/internal/history"
)

// sevenSystems is the full Section 5 mapping the registry must carry
// once repro/btsim/systems is imported.
var sevenSystems = []string{
	"bitcoin", "ethereum", "byzcoin", "algorand", "peercensus", "redbelly", "fabric",
}

func TestRegistryCarriesAllSevenSystems(t *testing.T) {
	if got := len(btsim.Systems()); got < len(sevenSystems) {
		t.Fatalf("Systems() returned %d systems, want ≥ %d", got, len(sevenSystems))
	}
	for _, name := range sevenSystems {
		sys, ok := btsim.Lookup(name)
		if !ok {
			t.Fatalf("system %q not registered", name)
		}
		info := sys.Info()
		if info.Name != name {
			t.Errorf("Lookup(%q).Info().Name = %q", name, info.Name)
		}
		if info.Oracle == "" || info.Criterion == "" || info.Section == "" || info.Synopsis == "" {
			t.Errorf("%s: incomplete Info %+v", name, info)
		}
		switch info.Criterion {
		case "EC":
			if info.K != 0 {
				t.Errorf("%s: EC system should claim the prodigal oracle (K=0), got K=%d", name, info.K)
			}
		case "SC", "SC w.h.p.":
			if info.K < 1 {
				t.Errorf("%s: SC system should claim a frugal oracle (K≥1), got K=%d", name, info.K)
			}
		default:
			t.Errorf("%s: unknown criterion %q", name, info.Criterion)
		}
	}
}

func TestSystemsOrderedBySection(t *testing.T) {
	systems := btsim.Systems()
	for i := 1; i < len(systems); i++ {
		a, b := systems[i-1].Info(), systems[i].Info()
		if a.Section > b.Section || (a.Section == b.Section && a.Name > b.Name) {
			t.Fatalf("Systems() out of section order: %s (§%s) before %s (§%s)",
				a.Name, a.Section, b.Name, b.Section)
		}
	}
}

func TestLookupIsCaseInsensitive(t *testing.T) {
	for _, name := range []string{"Bitcoin", "BITCOIN", " bitcoin "} {
		if _, ok := btsim.Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
	if _, ok := btsim.Lookup("nope"); ok {
		t.Error("Lookup of unknown system succeeded")
	}
}

func TestGetErrorListsRegisteredSystems(t *testing.T) {
	_, err := btsim.Get("dogecoin")
	if err == nil {
		t.Fatal("Get of unknown system did not error")
	}
	for _, name := range sevenSystems {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list registered system %q", err, name)
		}
	}
}

func TestRunUnknownSystemErrors(t *testing.T) {
	if _, err := btsim.Run("dogecoin"); err == nil {
		t.Fatal("Run of unknown system did not error")
	}
}

func TestRegisterRejectsDuplicatesAndNil(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Register(nil)", func() { btsim.Register(nil) })
	mustPanic("empty name", func() {
		btsim.Register(btsim.NewSystem(btsim.Info{}, nil))
	})

	dummy := btsim.NewSystem(btsim.Info{Name: "dummy-for-test", Section: "9.9"},
		func(btsim.Config) (*btsim.Result, error) { return nil, nil })
	btsim.Register(dummy)
	t.Cleanup(func() { btsim.Unregister("dummy-for-test") })
	mustPanic("duplicate name", func() { btsim.Register(dummy) })
}

// liveLoad is a chan deployment under load.
func liveLoad(load btsim.Load) []btsim.Option {
	return []btsim.Option{btsim.WithLive("chan"), btsim.WithLoad(load)}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []btsim.Option
	}{
		{"negative N", []btsim.Option{btsim.WithN(-1)}},
		{"N past what a history names", []btsim.Option{btsim.WithN(history.MaxProcs + 1)}},
		{"negative rounds", []btsim.Option{btsim.WithRounds(-5)}},
		{"unknown strategy", []btsim.Option{btsim.WithAdversary(btsim.Adversary{Strategy: "51pct"})}},
		{"negative merit", []btsim.Option{btsim.WithMerits(1, -2)}},
		{"bad fault kind", []btsim.Option{btsim.WithFaults(btsim.Fault{Kind: "wormhole"})}},
		{"fault ends before start", []btsim.Option{btsim.WithFaults(btsim.Fault{Kind: "split", Start: 10, End: 5})}},
		// A rule naming no process of the run used to be a silent no-op.
		{"fault side past N", []btsim.Option{btsim.WithN(4), btsim.WithFaults(btsim.Fault{Start: 5, End: 30, Left: []int{9}})}},
		{"fault side at default N", []btsim.Option{btsim.WithFaults(btsim.Fault{Start: 5, End: 30, Left: []int{0, 9}})}},
		{"negative fault side", []btsim.Option{btsim.WithN(4), btsim.WithFaults(btsim.Fault{Start: 5, End: 30, Left: []int{-1}})}},
		{"eclipse victim past N", []btsim.Option{btsim.WithN(4), btsim.WithFaults(btsim.Fault{Kind: "eclipse", Start: 5, End: 30, Left: []int{9}})}},
		// A fault that cuts nobody, or another victim than it names.
		{"eclipse naming no victim", []btsim.Option{btsim.WithN(4), btsim.WithFaults(btsim.Fault{Kind: "eclipse", Start: 5, End: 30})}},
		{"eclipse naming two victims", []btsim.Option{btsim.WithN(4), btsim.WithFaults(btsim.Fault{Kind: "eclipse", Start: 5, End: 30, Left: []int{1, 2}})}},
		{"split with an empty side", []btsim.Option{btsim.WithN(4), btsim.WithFaults(btsim.Fault{Start: 5, End: 30})}},
		{"split with every process on one side", []btsim.Option{btsim.WithN(4), btsim.WithFaults(btsim.Fault{Start: 5, End: 30, Left: []int{0, 1, 2, 3}})}},
		{"fault starts before 0", []btsim.Option{btsim.WithFaults(btsim.Fault{Start: -5, End: 30, Left: []int{0}})}},
		{"drop to a process past N", []btsim.Option{btsim.WithN(4), btsim.WithDropNth(0, 7)}},
		{"negative drop index", []btsim.Option{btsim.WithDropNth(-1, 1)}},
		{"negative drop index, every message", []btsim.Option{btsim.WithDropNth(-1, -1)}},
		// Out-of-range knobs that used to fall back to a default silently.
		{"negative read interval", []btsim.Option{btsim.WithReadEvery(-3)}},
		{"negative delta", []btsim.Option{btsim.WithDelta(-2)}},
		{"negative difficulty", []btsim.Option{btsim.WithDifficulty(-1)}},
		{"negative live clients", liveLoad(btsim.Load{Clients: -3, Appends: 5})},
		{"negative live rate", liveLoad(btsim.Load{Rate: -1, Appends: 5})},
		{"negative live appends", liveLoad(btsim.Load{Appends: -5, Duration: 200 * time.Millisecond})},
		{"negative live duration", liveLoad(btsim.Load{Duration: -time.Second, Appends: 5})},
	}
	for _, tc := range cases {
		if _, err := btsim.Run("bitcoin", tc.opts...); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		}
	}
}

// TestEverySystemRunsAtOneAndTwoProcesses: every registered system
// finishes a one- and a two-process run and returns its verdicts.
// Algorand's sortition used to draw forever for a committee of three
// distinct members out of one or two processes.
func TestEverySystemRunsAtOneAndTwoProcesses(t *testing.T) {
	type outcome struct {
		run string
		res *btsim.Result
		err error
	}
	names := btsim.Names()
	done := make(chan outcome, 2*len(names)) // a run that returns after the deadline must not block
	runs := 0
	for _, name := range names {
		for _, n := range []int{1, 2} {
			runs++
			go func() {
				res, err := btsim.Run(name, btsim.WithN(n))
				done <- outcome{fmt.Sprintf("%s at N=%d", name, n), res, err}
			}()
		}
	}
	deadline := time.After(60 * time.Second)
	for ; runs > 0; runs-- {
		select {
		case o := <-done:
			if o.err != nil {
				t.Errorf("%s: %v", o.run, o.err)
				continue
			}
			if sc, ec := o.res.Check(); sc == nil || ec == nil {
				t.Errorf("%s returned no verdicts", o.run)
			}
		case <-deadline:
			t.Fatalf("%d runs did not return within 60 s", runs)
		}
	}
}

// TestEveryConfigFieldHasAKnob walks Config: each exported field has
// exactly one row in the knobs table and each row names a field, so a
// knob cannot be added without saying which driver takes it.
func TestEveryConfigFieldHasAKnob(t *testing.T) {
	rows := map[string]int{}
	for _, row := range btsim.KnobRows() {
		rows[row.Field]++
	}
	typ := reflect.TypeOf(btsim.Config{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.IsExported() {
			if rows[f.Name] != 1 {
				t.Errorf("Config.%s has %d rows in the knobs table, want 1", f.Name, rows[f.Name])
			}
			delete(rows, f.Name)
		}
	}
	for field := range rows {
		t.Errorf("the knobs table has a row for %q, which is no exported Config field", field)
	}
}
