package main

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles starts a pprof CPU profile written to cpuPath and arranges an
// allocation profile written to memPath; an empty path skips that profile.
// The returned stop ends the CPU profile and writes the allocation profile;
// call it once, when the profiled work is done. Profiles only ever go to
// their files, so standard output is the same with or without them.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		// An explicit GC makes the heap profile reflect live data and
		// complete allocation counts, not a mid-cycle snapshot.
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}, nil
}
