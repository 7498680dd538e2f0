// Package profile writes the pprof profiles the commands take flags for:
// a CPU profile of the run, and the heap, lock-contention and blocking
// profiles at its end.
package profile

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start starts a CPU profile and the lock and blocking records as asked
// (an empty path: not asked). The function it returns stops them and
// writes every asked profile out, the heap after a GC; it writes what it
// can and returns every error it met. A command calls it before each of
// its exits, a failing one too.
func Start(cpu, mem, mutex, block string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		if cpuFile, err = os.Create(cpu); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if block != "" {
		runtime.SetBlockProfileRate(1)
	}
	return func() error {
		var cpuErr error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuErr = cpuFile.Close()
		}
		if mem != "" {
			runtime.GC()
		}
		return errors.Join(cpuErr, write("heap", mem), write("mutex", mutex), write("block", block))
	}, nil
}

// write writes the named runtime profile (pprof.Lookup) to path; an
// empty path writes nothing.
func write(name, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = pprof.Lookup(name).WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
