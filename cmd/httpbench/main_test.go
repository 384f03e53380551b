package main

import (
	"reflect"
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
