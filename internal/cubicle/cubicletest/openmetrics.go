package cubicletest

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseOpenMetrics is a minimal parser for the exposition
// Monitor.WriteOpenMetrics produces: it returns the sample values keyed by
// series name (labels, if any, included verbatim) and verifies the
// mandatory trailing "# EOF". Tests round-trip the endpoint through it.
func ParseOpenMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sawEOF := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if sawEOF {
			return nil, fmt.Errorf("openmetrics: content after # EOF")
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				return nil, fmt.Errorf("openmetrics: bad comment line %q", line)
			}
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx <= 0 {
			return nil, fmt.Errorf("openmetrics: bad sample line %q", line)
		}
		name := line[:idx]
		v, err := strconv.ParseFloat(line[idx+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("openmetrics: bad value in %q: %v", line, err)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("openmetrics: duplicate series %q", name)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawEOF {
		return nil, fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	return out, nil
}
