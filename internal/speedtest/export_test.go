package speedtest

import "fmt"

// OnExec hands fn every statement the runner executes: its format, a copy
// of its arguments and the text exec built from them, which the next
// statement rewrites: fn clones what it keeps.
func (r *Runner) OnExec(fn func(format string, args []any, sql string)) { r.onExec = fn }

// SprintfStatement renders a statement the way exec did before it had a
// formatter of its own: fmt.Sprintf, with filler text from the fmt-based
// pad.
func SprintfStatement(format string, args []any) string {
	old := make([]any, len(args))
	for i, a := range args {
		if f, ok := a.(filler); ok {
			a = sprintfPad(f.i, f.width)
		}
		old[i] = a
	}
	return fmt.Sprintf(format, old...)
}

// sprintfPad is pad as it was.
func sprintfPad(i, width int) string {
	s := fmt.Sprintf("%0*d", width, i*2654435761%100000000)
	for len(s) < width {
		s += "x"
	}
	return s
}
