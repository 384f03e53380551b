// Command slocbreakdown regenerates Table 2 of the paper — the size of
// each CubicleOS component — for this reproduction, by counting
// non-blank, non-comment Go source lines per subsystem. With -effort it
// also reports the "developer effort" rows: the window-management code
// the ported applications needed (§6.2).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// groups maps Table 2 rows to source directories.
var groups = []struct {
	name string
	desc string
	dirs []string
}{
	{"Monitor/runtime", "cubicles, windows, trampolines, loader, builder, free lists", []string{"internal/cubicle", "internal/spare"}},
	{"Hardware model", "simulated memory, MPK, object code, cost model", []string{"internal/vm", "internal/mpk", "internal/isa", "internal/cycles"}},
	{"Unikraft components", "VFS, RAMFS, LWIP, NETDEV, ALLOC, TIME, PLAT, libc", []string{
		"internal/vfscore", "internal/ramfs", "internal/lwip", "internal/netdev",
		"internal/ualloc", "internal/uktime", "internal/plat", "internal/ulibc",
		"internal/urandom", "internal/boot"}},
	{"SQLite", "pager, B+tree, SQL engine, speedtest1", []string{"internal/sqldb", "internal/speedtest"}},
	{"NGINX", "HTTP server, siege client", []string{"internal/httpd", "internal/siege"}},
	{"Observability", "event tracer, metrics export", []string{"internal/trace"}},
	{"Recovery", "checkpoint codec, fault injection", []string{"internal/snapshot", "internal/faultinject"}},
	{"Cluster", "balancer, failover, retries", []string{"internal/cluster"}},
	{"Baselines", "microkernel IPC models, Linux baseline", []string{"internal/ukernel"}},
	{"Experiments", "figure harness", []string{"internal/experiments"}},
	{"Tools & examples", "cmd/, examples/, public facade", []string{"cmd", "examples", "."}},
}

func main() {
	effort := flag.Bool("effort", false, "also report the porting-effort rows of §6.2")
	root := flag.String("root", ".", "repository root")
	flag.Parse()

	fmt.Printf("%-22s %8s %8s  %s\n", "component", "sloc", "tests", "description")
	var totalCode, totalTest int
	for _, g := range groups {
		var code, test int
		for _, dir := range g.dirs {
			for _, f := range goFiles(*root, dir) {
				n, _ := countFile(f)
				if strings.HasSuffix(f, "_test.go") {
					test += n
				} else {
					code += n
				}
			}
		}
		totalCode += code
		totalTest += test
		fmt.Printf("%-22s %8d %8d  %s\n", g.name, code, test, g.desc)
	}
	fmt.Printf("%-22s %8d %8d\n", "TOTAL", totalCode, totalTest)

	if *effort {
		fmt.Println("\nporting effort (window-management and deployment code, cf. §6.2):")
		for _, f := range []struct{ name, file string }{
			{"SQLite port", "internal/experiments/sqlite.go"},
			{"NGINX port", "internal/siege/siege.go"},
		} {
			c, _ := countFile(filepath.Join(*root, f.file))
			fmt.Printf("  %-14s %5d sloc (paper: SQLite 620, NGINX 390)\n", f.name, c)
		}
	}
}

// goFiles lists the .go files a row's dir counts: every one under
// root/dir, or for "." those of root itself.
func goFiles(root, dir string) []string {
	var out []string
	top := filepath.Join(root, dir)
	filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return nil
		case d.IsDir() && dir == "." && path != top:
			return filepath.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go"):
			out = append(out, path)
		}
		return nil
	})
	return out
}

// countFile counts non-blank, non-comment lines.
func countFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	inBlock := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if inBlock {
			if strings.Contains(line, "*/") {
				inBlock = false
			}
			continue
		}
		switch {
		case line == "", strings.HasPrefix(line, "//"):
		case strings.HasPrefix(line, "/*"):
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
		default:
			n++
		}
	}
	return n, sc.Err()
}
