// Command cubicle-trace boots the siege/NGINX deployment with the
// observability layer enabled from cycle 0, drives an HTTP workload, and
// emits the run in one of four formats:
//
//	-format chrome    Chrome trace_event JSON — load in Perfetto or
//	                  chrome://tracing to see cross-cubicle call spans,
//	                  fault handler costs, retags and wrpkru instants on
//	                  the virtual-time axis
//	-format prom      Prometheus text exposition: the monitor's counters,
//	                  per-edge call-latency histograms with quantiles,
//	                  per-cubicle cycle totals
//	-format json      machine-readable snapshot (counters, edge digests,
//	                  per-cubicle profile)
//	-format profile   human-readable per-cubicle cycle profile
//
// The counters are the monitor's Stats, one per cubicle.Counters row; the
// rest is what only the tracer knows.
//
// With -check the emitted chrome/json output is additionally validated to
// round-trip through encoding/json, the prom output to hold `series value`
// samples with no series and no # TYPE family twice, and the per-cubicle
// profile total is checked against the virtual clock — the invariants
// scripts/check.sh smoke-tests in CI.
//
// With -replay the command becomes a record/replay determinism check: the
// same workload (same seed, same chaos schedule) is executed twice, the
// second run halting its virtual clock at -until cycles (0 = run to the
// end), and the two event streams must agree bit-identically
// on every event with Cycle <= until. Any divergence — one event, one
// field — is a determinism bug and exits non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"cubicleos"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
	"cubicleos/internal/trace"
)

func main() {
	format := flag.String("format", "chrome", "output: "+strings.Join(formats, ", "))
	mode := flag.String("mode", "full", "isolation mode: unikraft, no-mpk, no-acl, full")
	requests := flag.Int("requests", 20, "number of GET requests to issue")
	size := flag.Int("size", 16<<10, "static file size in bytes")
	ring := flag.Int("ring", 1<<16, "trace ring capacity in events")
	out := flag.String("o", "", "output file (default stdout)")
	check := flag.Bool("check", false, "validate output invariants and report them on stderr")
	cores := flag.Int("cores", 1, "simulated cores: > 1 adds the retag shootdown surcharge for the remote ones")
	chaosSeed := flag.Uint64("chaos-seed", 0, "run under supervision with deterministic fault injection into RAMFS from this seed (0 = off)")
	checkpoint := flag.Uint64("checkpoint", 0, "checkpoint interval in virtual cycles (0 = off): quiescent cubicles are snapshotted and supervised restarts restore warm state")
	replay := flag.Bool("replay", false, "record/replay determinism check: execute the run twice and compare the event streams bit-identically")
	until := flag.Uint64("until", 0, "with -replay: halt the replay run's virtual clock at this cycle and compare events with Cycle <= until (0 = full run)")
	flag.Parse()

	if err := errors.Join(checkRing(*ring), checkRun(*requests, *size, *cores),
		checkChoices(*format, *mode, *replay, *until)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		flag.Usage()
		os.Exit(2)
	}
	m, _ := cubicle.ParseMode(*mode) // checkChoices parsed it

	// mkOpts builds a fresh option set per boot: the replay path boots the
	// deployment twice and must not share mutable config across runs.
	mkOpts := func() siege.Options {
		opts := siege.Options{Mode: m, TraceEvents: *ring, SMPCores: *cores,
			CheckpointInterval: *checkpoint}
		if *chaosSeed != 0 {
			opts = opts.Chaotic(*chaosSeed)
		}
		return opts
	}

	if *replay {
		runReplay(mkOpts, *requests, *size, *until)
		return
	}

	tgt, err := runWorkload(mkOpts(), *requests, *size, 0)
	if err != nil {
		log.Fatal(err)
	}
	if *chaosSeed != 0 {
		if tgt.Sys.M.Stats.InjectedFaults == 0 {
			log.Fatalf("chaos seed %d injected no faults over %d requests", *chaosSeed, *requests)
		}
		recovered := false
		for i := 0; i < 50 && !recovered; i++ {
			if err := tgt.PutFile("/trace.bin", make([]byte, *size)); err != nil {
				// Still in quarantine backoff; wait it out on the virtual clock.
				tgt.Sys.M.Clock.Charge(cubicleos.DefaultRestartPolicy().BackoffMax)
				continue
			}
			if res, err := tgt.Fetch("/trace.bin"); err == nil && res.Status == 200 {
				recovered = true
			}
		}
		if !recovered {
			log.Fatal("server did not recover to 200 after chaos was disarmed")
		}
	}

	mon := tgt.Sys.M
	trc := mon.Tracer()
	var buf bytes.Buffer
	switch *format {
	case "chrome":
		err = trc.WriteChromeTrace(&buf)
	case "prom":
		for _, c := range cubicle.Counters {
			fmt.Fprintf(&buf, "# HELP cubicleos_%s_total %s\n# TYPE cubicleos_%s_total counter\ncubicleos_%s_total %d\n",
				c.Name, c.Help, c.Name, c.Name, *c.Field(&mon.Stats))
		}
		err = trc.WritePrometheus(&buf)
	case "json":
		var b []byte
		b, err = json.MarshalIndent(struct {
			Counters map[string]uint64 `json:"counters"`
			*trace.Snapshot
		}{cubicle.CounterValues(&mon.Stats), trc.Snapshot()}, "", " ")
		buf.Write(b)
	case "profile":
		writeProfile(&buf, tgt)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *check {
		validate(tgt, *format, buf.Bytes())
	}

	if *out != "" {
		err = os.WriteFile(*out, buf.Bytes(), 0o666)
	} else {
		_, err = os.Stdout.Write(buf.Bytes())
	}
	if err != nil {
		log.Fatal(err)
	}
}

// checkRing refuses a -ring that would leave the run without a tracer
// (n < 1) or that no ring can hold (n > trace.MaxRing).
func checkRing(n int) error {
	if n < 1 || n > trace.MaxRing {
		return fmt.Errorf("-ring %d: want 1 to %d events", n, trace.MaxRing)
	}
	return nil
}

// checkRun refuses a run that would do nothing yet pass -check
// (requests < 1), a file no slice can hold (size < 0) and a core count
// the surcharge has no meaning for (cores < 1).
func checkRun(requests, size, cores int) error {
	switch {
	case requests < 1:
		return fmt.Errorf("-requests %d: want 1 or more", requests)
	case size < 0:
		return fmt.Errorf("-size %d: want a file size of 0 bytes or more", size)
	case cores < 1:
		return fmt.Errorf("-cores %d: want 1 or more", cores)
	}
	return nil
}

// formats are the -format values main's output switch writes.
var formats = []string{"chrome", "prom", "json", "profile"}

// checkChoices refuses a -format or -mode the run has no meaning for, and
// an -until without -replay, which nothing would read.
func checkChoices(format, mode string, replay bool, until uint64) error {
	var errs []error
	if !slices.Contains(formats, format) {
		errs = append(errs, fmt.Errorf("-format %q: want one of %s", format, strings.Join(formats, ", ")))
	}
	if _, err := cubicle.ParseMode(mode); err != nil {
		errs = append(errs, fmt.Errorf("-mode: %w", err))
	}
	if until != 0 && !replay {
		errs = append(errs, fmt.Errorf("-until %d: only -replay halts a run", until))
	}
	return errors.Join(errs...)
}

// runWorkload boots a target and drives the request loop. With stop != 0
// the run halts as soon as the virtual clock reaches stop (the replay
// side of a record/replay pair); halting only reads the clock, so a
// halted run's step sequence is a bit-identical prefix of a full one.
func runWorkload(opts siege.Options, requests, size int, stop uint64) (*siege.Target, error) {
	tgt, err := siege.NewTargetOpts(opts)
	if err != nil {
		return nil, err
	}
	tgt.Sys.M.Tracer().StartDigest() // validate checks it against the ring
	if err := tgt.PutFile("/trace.bin", make([]byte, size)); err != nil {
		return nil, err
	}
	if stop == 0 {
		stop = math.MaxUint64 // Fetch's bound: never halts
	}
	chaos := tgt.Sys.Chaos
	if chaos != nil {
		chaos.Arm()
		defer chaos.Disarm()
	}
	for i := 0; i < requests; i++ {
		res, err := tgt.FetchUntil("/trace.bin", stop)
		switch {
		case errors.Is(err, siege.ErrHalted):
			return tgt, nil
		case chaos != nil:
			// Under chaos, degraded responses (503, 404 after a RAMFS
			// restart, truncated bodies) are the expected behaviour; the run
			// only has to survive and recover, never crash.
			if err == nil && res.Status == 404 {
				_ = tgt.PutFile("/trace.bin", make([]byte, size))
			}
		case err != nil:
			return nil, err
		case res.Status != 200:
			return nil, fmt.Errorf("request %d: status %d", i, res.Status)
		}
	}
	return tgt, nil
}

// runReplay executes the workload twice — record, then replay halted at
// `until` — and requires the event streams to agree
// bit-identically on every event with Cycle <= until.
func runReplay(mkOpts func() siege.Options, requests, size int, until uint64) {
	rec, err := runWorkload(mkOpts(), requests, size, 0)
	if err != nil {
		log.Fatalf("record run: %v", err)
	}
	end := rec.Sys.M.Clock.Cycles()
	cutoff := until
	if cutoff == 0 || cutoff > end {
		cutoff = end
	}
	rep, err := runWorkload(mkOpts(), requests, size, until)
	if err != nil {
		log.Fatalf("replay run: %v", err)
	}
	recTrc, repTrc := rec.Sys.M.Tracer(), rep.Sys.M.Tracer()
	// A ring overflow evicts the oldest events, so the retained stream is a
	// suffix — the prefix comparison is only sound when nothing was lost.
	if d := recTrc.Dropped() + repTrc.Dropped(); d != 0 {
		log.Fatalf("trace ring overflowed (%d events dropped); raise -ring for a sound prefix comparison", d)
	}
	a := prefix(recTrc.Events(), cutoff)
	b := prefix(repTrc.Events(), cutoff)
	if len(a) != len(b) {
		log.Fatalf("replay diverged: %d events with cycle <= %d recorded, %d replayed", len(a), cutoff, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			log.Fatalf("replay diverged at event %d (cycle <= %d):\n  recorded: %+v\n  replayed: %+v",
				i, cutoff, a[i], b[i])
		}
	}
	fmt.Fprintf(os.Stderr, "replay ok: %d events bit-identical up to cycle %d (record ran to %d, replay halted at %d), %d recorded, %d dropped\n",
		len(a), cutoff, end, rep.Sys.M.Clock.Cycles(), recTrc.Recorded(), recTrc.Dropped())
}

// prefix returns the events with Cycle <= cutoff; the stream is
// nondecreasing in cycle, so this is a true stream prefix.
func prefix(events []trace.Event, cutoff uint64) []trace.Event {
	for i, ev := range events {
		if ev.Cycle > cutoff {
			return events[:i]
		}
	}
	return events
}

// writeProfile prints the per-cubicle cycle profile as a table.
func writeProfile(w io.Writer, tgt *siege.Target) {
	trc := tgt.Sys.M.Tracer()
	prof := trc.Profile()
	clock := tgt.Sys.M.Clock.Cycles()
	fmt.Fprintf(w, "PER-CUBICLE CYCLE PROFILE (%s, %d requests logged by NGINX)\n",
		tgt.Sys.M.Mode, tgt.Srv.Requests)
	fmt.Fprintf(w, "%-12s %14s %7s\n", "cubicle", "cycles", "%")
	for _, e := range prof.Entries {
		fmt.Fprintf(w, "%-12s %14d %6.2f%%\n", e.Name, e.Cycles, e.Percent)
	}
	fmt.Fprintf(w, "%-12s %14d %6.2f%%\n", "TOTAL", prof.TotalCycles,
		100*float64(prof.TotalCycles)/float64(clock))
	fmt.Fprintf(w, "virtual clock %d cycles; profile covers %.3f%% of it\n",
		clock, 100*float64(prof.TotalCycles)/float64(clock))
}

// validate asserts the acceptance invariants of the emitted data.
func validate(tgt *siege.Target, format string, output []byte) {
	m := tgt.Sys.M
	trc := m.Tracer()
	fail := func(f string, a ...any) { log.Fatalf("check failed: "+f, a...) }

	switch format {
	case "chrome", "json":
		var v any
		if err := json.Unmarshal(output, &v); err != nil {
			fail("%s output does not round-trip through encoding/json: %v", format, err)
		}
	case "prom":
		seen := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSuffix(string(output), "\n"), "\n") {
			key := line
			if family, ok := strings.CutPrefix(line, "# TYPE "); ok {
				key, _, _ = strings.Cut(family, " ")
				key = "# TYPE " + key
			} else if !strings.HasPrefix(line, "# HELP ") {
				i := strings.LastIndexByte(line, ' ')
				if _, err := strconv.ParseFloat(line[i+1:], 64); i <= 0 || err != nil {
					fail("prom line %q is not `series value`", line)
				}
				key = line[:i]
			}
			if seen[key] {
				fail("prom output repeats %s", key)
			}
			seen[key] = true
		}
	}

	if m.Stats.Restarts != m.Stats.WarmRestarts+m.Stats.ColdRestarts {
		fail("restarts %d != warm %d + cold %d", m.Stats.Restarts, m.Stats.WarmRestarts, m.Stats.ColdRestarts)
	}

	// Ring invariants: the surviving stream is nondecreasing in cycle and
	// consecutive in sequence number, it is exactly what was recorded minus
	// what ring wrap overwrote, and a ring that overwrote nothing folds to
	// the digest Record folded as it wrote.
	if d := trc.Digest(); trc.Dropped() == 0 && (!trc.StartDigest() || trc.Digest() != d) {
		fail("digest %#x folded as recorded, %#x read back from the ring", d, trc.Digest())
	}
	events := trc.Events()
	for i := 1; i < len(events); i++ {
		if p, ev := events[i-1], events[i]; ev.Cycle < p.Cycle || ev.Seq != p.Seq+1 {
			fail("stream out of order at %d: (cycle %d, seq %d) after (cycle %d, seq %d)", i, ev.Cycle, ev.Seq, p.Cycle, p.Seq)
		}
	}
	if trc.Recorded()-trc.Dropped() != uint64(len(events)) {
		fail("recorded %d - dropped %d != %d retained events", trc.Recorded(), trc.Dropped(), len(events))
	}

	// The per-cubicle profile must account for the whole virtual clock.
	prof := trc.Profile()
	clock := m.Clock.Cycles()
	if clock == 0 {
		fail("virtual clock did not advance")
	}
	cover := float64(prof.TotalCycles) / float64(clock)
	if cover < 0.99 || cover > 1.01 {
		fail("profile covers %.4f of the virtual clock (want within 1%%)", cover)
	}
	fmt.Fprintf(os.Stderr, "check ok: %d events, stream ordered, profile covers %.4f%% of %d cycles\n",
		trc.Recorded(), 100*cover, clock)
}
