// Package cmdutil is the shared error-handling convention for the cmd/*
// tools: diagnostics go to stderr prefixed with the tool name, usage errors
// exit 2, and operational failures exit 1 — the same split flag.Parse and
// the POSIX utilities use.
package cmdutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"pnetcdf/internal/span"
)

// Fatal prints "tool: err" to stderr and exits 1. A nil err is a no-op, so
// callers can write cmdutil.Fatal(tool, run()) unconditionally.
func Fatal(tool string, err error) {
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// Usagef prints a formatted usage diagnostic to stderr and exits 2 (the
// conventional bad-invocation code).
func Usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}

// WriteSpanFile implements the conventional -span-out behavior: write the
// merged spans as Chrome trace-event JSON (Perfetto-loadable) at path. An
// empty path is a no-op. A nonzero drop count is echoed as a warning — the
// file is then a truncated record, not a complete one.
func WriteSpanFile(tool, path string, spans []span.Span, dropped int64) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	Fatal(tool, err)
	Fatal(tool, span.WriteChromeTrace(f, spans, dropped))
	Fatal(tool, f.Close())
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "%s: WARNING: span recorder dropped %d spans; %s is INCOMPLETE\n", tool, dropped, path)
	}
}

// StartProfiles implements the conventional -cpuprofile/-memprofile behavior
// for the bench tools: an empty path disables that profile. It returns a
// stop function the caller must defer; stop ends the CPU profile and writes
// the heap profile (after a GC, so it reflects live data, like `go test
// -memprofile`). Profiles are only written when the tool completes normally
// — Fatal's os.Exit skips deferred stops, which is fine for a profiling run.
func StartProfiles(tool, cpuPath, memPath string) func() {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		Fatal(tool, err)
		Fatal(tool, pprof.StartCPUProfile(f))
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			Fatal(tool, cpuFile.Close())
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			Fatal(tool, err)
			runtime.GC()
			Fatal(tool, pprof.WriteHeapProfile(f))
			Fatal(tool, f.Close())
		}
	}
}
