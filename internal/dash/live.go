package dash

import (
	"io"
	"time"

	"cubicleos/internal/siege"
)

// LiveOptions configures a live run.
type LiveOptions struct {
	// FrameCycles is the virtual-time quantum between frames (0 = one
	// frame per 2 ms of virtual time).
	FrameCycles uint64
	// Refresh is the wall-clock pause after each frame, so a human can
	// watch a run that would otherwise finish in milliseconds (0 = none;
	// tests use 0).
	Refresh time.Duration
	// Dash options pass through to the renderer.
	Dash Options
}

// Live drives an open-loop run against the target while rendering a
// dashboard frame every FrameCycles of virtual time — the cubicle-top
// loop. It returns the run's statistics; a final frame is rendered after
// the run drains so the last state is always visible.
func Live(tgt *siege.Target, lo siege.OpenLoopOptions, w io.Writer, o LiveOptions) (*siege.OpenLoopStats, error) {
	if o.FrameCycles == 0 {
		o.FrameCycles = 4_400_000 // 2 ms at 2.2 GHz
	}
	d := New(tgt.Sys.M, w, o.Dash)
	drv, err := tgt.StartOpenLoop(lo)
	if err != nil {
		return nil, err
	}
	clock := tgt.Sys.M.Clock
	next := clock.Cycles() + o.FrameCycles
	// The clock is checked after every step: it can jump a whole idle gap
	// in one, so coarser checks would skip frames.
	for drv.Step(1) {
		if now := clock.Cycles(); now >= next {
			d.Frame()
			for next <= now {
				next += o.FrameCycles
			}
			if o.Refresh > 0 {
				time.Sleep(o.Refresh)
			}
		}
	}
	st := drv.Finish()
	d.Frame()
	return st, nil
}
