package btsim_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/btsim"
	_ "repro/btsim/systems"
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

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []btsim.Option
	}{
		{"negative N", []btsim.Option{btsim.WithN(-1)}},
		{"negative rounds", []btsim.Option{btsim.WithRounds(-5)}},
		{"unknown strategy", []btsim.Option{btsim.WithAdversary(btsim.Adversary{Strategy: "51pct"})}},
		{"negative merit", []btsim.Option{btsim.WithMerits(1, -2)}},
		{"bad fault kind", []btsim.Option{btsim.WithFaults(btsim.Fault{Kind: "wormhole"})}},
		{"fault ends before start", []btsim.Option{btsim.WithFaults(btsim.Fault{Kind: "split", Start: 10, End: 5})}},
	}
	for _, tc := range cases {
		if _, err := btsim.Run("bitcoin", tc.opts...); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
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
