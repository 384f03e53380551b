package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestParseRates: every rate in -rates is finite and positive; a list
// with any other entry is refused whole.
func TestParseRates(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []float64
	}{
		{"1000", []float64{1000}},
		{"1000, 2000,8000", []float64{1000, 2000, 8000}},
		{"0.5,1e4", []float64{0.5, 10000}},
		{"NaN", nil},
		{"1000,nan", nil},
		{"Inf", nil},
		{"-Inf", nil},
		{"0", nil},
		{"-1000", nil},
		{"1000,", nil},
		{"", nil},
		{"fast", nil},
	} {
		got, err := parseRates(c.in)
		if (err == nil) != (c.want != nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseRates(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
}

// TestParseFlags: every httpbench command line the repository runs or
// documents selects its run, and a flag the selected run does not read is
// refused, since an ignored -assert-scale would skip its gate and exit 0.
// -assert-degrade is no flag, so the five lines that name it are refused
// too (main exits 2): siege's TestOpenLoopGracefulDegradation and
// cluster's TestClusterGoodputScales and TestClusterFailover hold its
// gates.
func TestParseFlags(t *testing.T) {
	for _, c := range []struct{ args, run string }{
		{"-openloop", "openloop"},
		{"-openloop -rates 1000,8000 -requests 120", "openloop"},
		{"-cores 2", "cores"},
		{"-cores 2 -requests 200 -assert-scale 1.1", "cores"},
		{"-cores 2 -requests 200 -assert-scale 0.1", "cores"},
		{"-cores 2 -rates 2000 -requests 100", "cores"},
		{"-cores 4 -rates 2000 -requests 100", "cores"},
		{"-cluster 4", "cluster"},
		{"-cluster 4 -cluster-rate 8000 -cluster-seed 3", "cluster"},

		{"-openloop -rates 1000 -requests 5 -assert-scale 99", ""},
		{"-cores 1 -rates 1000 -requests 5 -assert-degrade", ""},
		{"-cores 2 -openloop", ""},
		{"-cluster 4 -rates 1000", ""},
		{"-cluster 4 -requests 5", ""},
		{"-cluster 4 -cores 2", ""},
		{"-cluster 4 -openloop", ""},
		{"-openloop -cluster-rate 100", ""},
		{"-cores 2 -cluster-seed 3", ""},
		{"-openloop -cluster 0", ""},
		{"-openloop -assert-degrade", ""},
		{"-openloop -rates 1000,8000 -requests 120 -assert-degrade", ""},
		{"-openloop -rates 1000,4000,8000 -assert-degrade", ""},
		{"-cluster 4 -assert-degrade", ""},
	} {
		fs := flag.NewFlagSet("httpbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		_, run, err := parseFlags(fs, strings.Fields(c.args))
		if c.run != "" && (err != nil || run != c.run) || c.run == "" && err == nil {
			t.Errorf("httpbench %s: run %q, %v; want run %q", c.args, run, err, c.run)
		}
	}
}
