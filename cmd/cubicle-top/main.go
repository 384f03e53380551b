// Command cubicle-top is the live dashboard of the observability layer: it
// boots the NGINX deployment with tracing, metrics and overload governance
// enabled, drives an open-loop siege against it, and renders per-cubicle
// crossing rates, edge latencies, the health ladder and shed/retry/
// shootdown rates as the run progresses — top(1) for a library OS.
//
// The run is fully virtual: -refresh inserts wall-clock pauses between
// frames so a human can watch, and -once renders a single final frame
// (no ANSI escapes) for scripts and CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"cubicleos"
	"cubicleos/internal/dash"
	"cubicleos/internal/siege"
)

func main() {
	rate := flag.Float64("rate", 6000, "offered load in requests per virtual second")
	requests := flag.Int("requests", 600, "arrivals in the run")
	size := flag.Int("size", 4096, "response body size in bytes")
	interval := flag.Uint64("metrics-interval", 2_000_000, "metrics sampling interval in virtual cycles")
	frame := flag.Uint64("frame", 4_400_000, "virtual cycles between frames (2 ms at 2.2 GHz)")
	refresh := flag.Duration("refresh", 80*time.Millisecond, "wall-clock pause per frame")
	once := flag.Bool("once", false, "render one final frame without ANSI escapes and exit")
	ungoverned := flag.Bool("ungoverned", false, "disable overload governance (watch the pile-up instead)")
	flag.Parse()
	if *size < 0 {
		fmt.Fprintf(os.Stderr, "-size %d: want a body size of 0 bytes or more\n", *size)
		flag.Usage()
		os.Exit(2)
	}

	o := siege.Options{
		Mode:        cubicleos.ModeFull,
		TraceEvents: 1 << 15, TraceSamplePeriod: 50_000,
		MetricsInterval: *interval,
	}
	if !*ungoverned {
		o = o.Governed()
	}
	tgt, err := siege.NewTargetOpts(o)
	if err != nil {
		log.Fatal(err)
	}
	if err := tgt.PutFile("/index.html", make([]byte, *size)); err != nil {
		log.Fatal(err)
	}

	lo := siege.OpenLoopOptions{Path: "/index.html", Rate: *rate, Requests: *requests}
	var w io.Writer = os.Stdout
	live := dash.LiveOptions{
		FrameCycles: *frame,
		Refresh:     *refresh,
		Dash:        dash.Options{ANSI: !*once},
	}
	if *once {
		// Single-frame mode: drive silently, render only the final state.
		live.Refresh = 0
		w = io.Discard
	}
	st, err := dash.Live(tgt, lo, w, live)
	if err != nil {
		log.Fatal(err)
	}
	if *once {
		dash.New(tgt.Sys.M, os.Stdout, dash.Options{}).Frame()
	}
	fmt.Printf("\nrun: offered %.0f rps  ok %d  shed %d  errors %d  dropped %d  goodput %.0f rps  p50 %s  p99 %s\n",
		st.OfferedRPS, st.OK, st.Shed, st.Errors, st.Dropped, st.GoodputRPS,
		st.P50.Round(10*time.Microsecond), st.P99.Round(10*time.Microsecond))
}
