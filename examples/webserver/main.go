// Webserver: the paper's NGINX deployment (Figure 5) end to end.
//
// Boots the 8-cubicle web stack — NGINX, LWIP, NETDEV, VFSCORE, RAMFS,
// PLAT, ALLOC, TIME (LIBC and RANDOM shared) — provisions static files,
// serves requests from a siege-style client attached to the virtual
// wire, and prints latencies plus the cross-cubicle call graph.
//
// Run with: go run ./examples/webserver [-mode full|unikraft] [-requests 5]
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"cubicleos"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

func main() {
	mode := flag.String("mode", "full", "isolation mode: unikraft, no-mpk, no-acl, full")
	requests := flag.Int("requests", 5, "requests per file")
	flag.Parse()

	m, err := cubicle.ParseMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	tgt, err := siege.NewTarget(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %d cubicles in mode %v:\n", len(tgt.Sys.M.Cubicles())-1, m)
	for _, c := range tgt.Sys.M.Cubicles() {
		if c.ID == 0 {
			continue
		}
		fmt.Printf("  %-8s kind=%-8s key=%d\n", c.Name, c.Kind, c.Key)
	}

	// A slice, not a map: the order is part of the output.
	files := []struct {
		name string
		size int
	}{{"/index.html", 4 << 10}, {"/app.js", 64 << 10}, {"/logo.png", 256 << 10}}
	for _, f := range files {
		if err := tgt.PutFile(f.name, []byte(strings.Repeat("x", f.size))); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("\nserving:")
	for _, f := range files {
		for i := 0; i < *requests; i++ {
			res, err := tgt.Fetch(f.name)
			if err != nil {
				log.Fatal(err)
			}
			if i == *requests-1 {
				fmt.Printf("  GET %-12s -> %d, %7d bytes, %6.2f ms (%d system cycles)\n",
					f.name, res.Status, len(res.Body), float64(res.Latency.Microseconds())/1000, res.Cycles)
			}
		}
	}

	fmt.Println("\naccess log (via PLAT console):")
	for _, line := range strings.Split(strings.TrimSpace(tgt.Sys.Plat.ConsoleOutput()), "\n") {
		fmt.Println("  " + line)
	}

	fmt.Println("\ncross-cubicle call graph (cf. Figure 5):")
	names := make(map[cubicleos.CubicleID]string)
	for _, c := range tgt.Sys.M.Cubicles() {
		names[c.ID] = c.Name
	}
	for _, e := range tgt.Edges() {
		fmt.Printf("  %-8s -> %-8s %8d calls\n", names[e.From], names[e.To], e.Count)
	}
	st := tgt.Sys.M.Stats
	fmt.Printf("\nisolation events: %d traps, %d retags, %d wrpkru, %d window ops\n",
		st.Faults, st.Retags, st.WRPKRUs, st.WindowOps)
}
