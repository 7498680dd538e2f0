package btsim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry. repro/btsim/systems fills it from its registration
// table in its init, so any import of that package makes the systems
// reachable by name from every consumer layer — scenarios, experiments,
// the cmd tools and external code alike.
var (
	regMu    sync.RWMutex
	registry = map[string]System{}
)

// Register adds a system under its Info().Name. It panics on an empty
// name or a duplicate registration — both are programmer errors in a
// package init, and a silent overwrite would make run results depend on
// import order.
func Register(sys System) {
	if sys == nil {
		panic("btsim: Register(nil)")
	}
	name := canonical(sys.Name())
	if name == "" {
		panic("btsim: Register with empty system name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("btsim: Register called twice for system %q", name))
	}
	registry[name] = sys
}

// Lookup returns the system registered under name (case-insensitive).
func Lookup(name string) (System, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	sys, ok := registry[canonical(name)]
	return sys, ok
}

// Get is Lookup with a ready-made error listing the registered names.
func Get(name string) (System, error) {
	sys, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("btsim: unknown system %q (registered systems: %s)",
			name, strings.Join(Names(), ", "))
	}
	return sys, nil
}

// Systems returns every registered system in paper-section order
// (Info.Section, then Name — deterministic regardless of import order).
func Systems() []System {
	regMu.RLock()
	out := make([]System, 0, len(registry))
	for _, sys := range registry {
		out = append(out, sys)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Info(), out[j].Info()
		if a.Section != b.Section {
			return a.Section < b.Section
		}
		return a.Name < b.Name
	})
	return out
}

// Names returns the sorted registered system names.
func Names() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}

// canonical normalizes a registry key.
func canonical(name string) string {
	return strings.ToLower(strings.TrimSpace(name))
}

// unregister removes a system; only tests use it (see export_test.go).
func unregister(name string) {
	regMu.Lock()
	defer regMu.Unlock()
	delete(registry, canonical(name))
}
