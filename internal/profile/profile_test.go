package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesEveryProfile asks for all four profiles and finds each
// a non-empty gzip file (pprof's encoding).
func TestStartWritesEveryProfile(t *testing.T) {
	dir := t.TempDir()
	paths := map[string]string{}
	for _, name := range []string{"cpu", "mem", "mutex", "block"} {
		paths[name] = filepath.Join(dir, name+".pprof")
	}
	stop, err := Start(paths["cpu"], paths["mem"], paths["mutex"], paths["block"])
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for name, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			t.Errorf("%s profile is %d bytes and not gzip", name, len(data))
		}
	}
}

// TestStartReportsUnwritablePaths: a CPU profile that cannot be created
// is Start's error; an end-of-run profile that cannot be written is the
// stop function's.
func TestStartReportsUnwritablePaths(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir")
	if _, err := Start(filepath.Join(missing, "cpu.pprof"), "", "", ""); err == nil {
		t.Error("Start took a CPU profile path in a missing directory")
	}
	stop, err := Start("", filepath.Join(missing, "mem.pprof"), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("stop wrote a heap profile into a missing directory")
	}
}
