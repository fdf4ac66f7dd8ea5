// Signal-driven graceful drain (DESIGN.md §12): SIGINT/SIGTERM used to
// kill fragmd mid-chunk even with -checkpoint set, discarding work the
// resilience layer was built to preserve. The first signal now asks the
// run to stop at its next safe boundary; a second signal is an
// unconditional exit for operators who cannot wait.
package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
)

// drainer carries the stop-at-next-boundary request from the signal
// handler to the run loops. runMD polls it between trajectory chunks —
// the checkpoint cadence, so "drained" always means "checkpointed" —
// fragmd serve waits on requested, and coordinate's fleet lease waits
// under it, so a drain also ends that wait.
type drainer struct {
	flag      atomic.Bool
	requested context.Context // canceled by the first signal
}

// drained reports whether a graceful stop was requested. Nil receivers
// (runs without signal handling, e.g. library use) never drain.
func (d *drainer) drained() bool { return d != nil && d.flag.Load() }

// armSignals installs the two-stage handler: the first SIGINT/SIGTERM
// sets the drain flag (the run finishes its current chunk, writes its
// checkpoint, and exits 0), the second exits immediately with the
// conventional 128+SIGTERM status. The returned stop function releases
// the handler; it is safe to call more than once.
func armSignals(errOut io.Writer) (*drainer, func()) {
	return armSignalsExit(errOut, os.Exit)
}

// armSignalsExit is armSignals with the second-signal escape hatch as
// a parameter, the seam tests use to observe the hard-exit path
// without dying.
func armSignalsExit(errOut io.Writer, exit func(code int)) (*drainer, func()) {
	requested, cancel := context.WithCancel(context.Background())
	d := &drainer{requested: requested}
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case sig := <-ch:
				if d.flag.CompareAndSwap(false, true) {
					fmt.Fprintf(errOut, "fragmd: %v: draining — finishing the current chunk and checkpointing (signal again to exit now)\n", sig)
					cancel()
					continue
				}
				fmt.Fprintf(errOut, "fragmd: %v: exiting immediately\n", sig)
				exit(128 + int(syscall.SIGTERM))
			case <-done:
				return
			}
		}
	}()
	var stopped atomic.Bool
	return d, func() {
		if stopped.CompareAndSwap(false, true) {
			signal.Stop(ch)
			close(done)
		}
	}
}
