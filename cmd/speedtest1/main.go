// Command speedtest1 runs the SQLite benchmark workload (the paper's
// §6.4 evaluation) on a CubicleOS deployment and prints per-query
// virtual execution times, mirroring the real speedtest1 utility's
// output style. As in the paper's artifact, the size of the database is
// controlled by the --stat flag (default 100); a -stat below 1 is a usage
// error (exit 2).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/experiments"
	"cubicleos/internal/speedtest"
)

func main() {
	stat := flag.Int("stat", 100, "workload scale (speedtest1 --stat)")
	mode := flag.String("mode", "full", "isolation mode: unikraft, no-mpk, no-acl, full")
	grouping := flag.String("compartments", "7", "compartment configuration: 3, 4 or 7 (Figure 9)")
	flag.Parse()
	if *stat < 1 {
		fmt.Fprintf(os.Stderr, "-stat %d: want a scale of 1 or more\n", *stat)
		flag.Usage()
		os.Exit(2)
	}

	m, err := cubicle.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	n, err := strconv.Atoi(*grouping)
	groups, ok := experiments.Layouts[n]
	if err != nil || !ok {
		log.Fatalf("compartments must be 3, 4 or 7")
	}

	t, err := experiments.NewSQLiteTarget(m, groups, *stat, experiments.UnikraftWorkScale)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("speedtest1 on CubicleOS (%s mode, %s compartments, --stat %d)\n", *mode, *grouping, *stat)
	if err := t.Setup(); err != nil {
		log.Fatal(err)
	}
	var total uint64
	for _, id := range speedtest.QueryIDs {
		c, err := t.RunQuery(id)
		if err != nil {
			log.Fatalf("query %d: %v", id, err)
		}
		total += c
		grp := "B"
		if speedtest.InGroupA(id) {
			grp = "A"
		}
		fmt.Printf(" %4d [%s] %-55s %10.3f ms\n", id, grp, speedtest.Title(id),
			float64(cycles.Duration(c).Microseconds())/1000)
	}
	fmt.Printf("\nTOTAL %51s %10.3f ms\n", "",
		float64(cycles.Duration(total).Microseconds())/1000)
	st := t.Sys.M.Stats
	fmt.Printf("isolation events: %d crossings, %d traps, %d retags, %d wrpkru, %d window ops\n",
		st.CallsTotal, st.Faults, st.Retags, st.WRPKRUs, st.WindowOps)
	ps := t.DB.Pager().Stats
	fmt.Printf("pager: %d hits, %d misses, %d writes, %d journal pages, %d fsyncs, %d commits\n",
		ps.Hits, ps.Misses, ps.Writes, ps.JournalPages, ps.Fsyncs, ps.Commits)
}
