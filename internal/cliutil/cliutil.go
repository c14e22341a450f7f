// Package cliutil holds the shutdown plumbing every ffet command shares:
// the SIGINT/SIGTERM-cancelled root context, the partial-stage-timings
// report an interrupted flow prints, and the classified-failure exit
// path. Extracted from the four CLIs (ffetflow, ffetexp, ffetmc,
// ffetcal), and used by the ffetd daemon for the same drain semantics.
// It also holds WriteFile, the checked artifact writer of ffetflow -def
// and cellgen -out.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
)

// SignalContext returns a context cancelled by SIGINT or SIGTERM. After
// cancellation a second signal falls back to the default handler (the
// stop function has been invoked by then in every CLI's defer), so a
// stuck drain can always be killed with a second ^C.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// IsCancel reports whether err is a cancellation (the flow taxonomy's
// ErrCancelled or a bare context error).
func IsCancel(err error) bool {
	return errors.Is(err, core.ErrCancelled) || errors.Is(err, context.Canceled)
}

// PrintPartialStageTimes writes the completed stage timings of a
// partially-run flow — the shutdown report an interrupted run leaves
// behind so the paid work is visible even when the result is not.
func PrintPartialStageTimes(w io.Writer, res *core.FlowResult) {
	fmt.Fprintln(w, "partial stage timings:")
	for d := core.StageSynth; int(d) < core.NumStages; d++ {
		if res.StageTimes[d] > 0 {
			fmt.Fprintf(w, "  %-9v %8s\n", d, res.StageTimes[d].Round(time.Microsecond))
		}
	}
}

// Fail reports a run error on stderr — marking interrupts so a ^C reads
// as one — and exits 1.
func Fail(tool string, err error) {
	if IsCancel(err) {
		fmt.Fprintln(os.Stderr, "interrupted")
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// WriteFile creates path and fills it with write, returning the first of
// the create, write and close errors, so a failed final flush is not
// lost.
func WriteFile(path string, write func(io.Writer) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return out.Close()
}
