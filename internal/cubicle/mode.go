package cubicle

import "fmt"

// Mode selects how much of the CubicleOS machinery is active. The modes
// form the ablation ladder of Figure 6: baseline Unikraft, CubicleOS
// without MPK, CubicleOS with MPK but without ACLs, and full CubicleOS.
type Mode uint8

const (
	// ModeUnikraft is the baseline library OS: all components share one
	// unprotected address space and calls across them are direct function
	// calls with no overhead.
	ModeUnikraft Mode = iota
	// ModeTrampoline enables cross-cubicle call trampolines (per-cubicle
	// stacks, stack-argument copies, CFI bookkeeping) but leaves MPK off:
	// every access succeeds.
	ModeTrampoline
	// ModeNoACL additionally enables MPK: cubicles run with only their
	// own key enabled, accesses to other cubicles' pages trap into the
	// monitor, and the trap-and-map handler retags pages — but the
	// window ACLs are "open for any access": the handler grants every
	// request without consulting window descriptors.
	ModeNoACL
	// ModeFull is complete CubicleOS: trampolines, MPK, and enforced
	// window ACLs.
	ModeFull
)

func (m Mode) String() string {
	switch m {
	case ModeUnikraft:
		return "unikraft"
	case ModeTrampoline:
		return "cubicleos-no-mpk"
	case ModeNoACL:
		return "cubicleos-no-acl"
	case ModeFull:
		return "cubicleos"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// modeFlags are the command-line names of the modes, indexed by Mode.
var modeFlags = [...]string{"unikraft", "no-mpk", "no-acl", "full"}

// ParseMode maps a mode's command-line name — unikraft, no-mpk, no-acl or
// full — to the mode.
func ParseMode(name string) (Mode, error) {
	for m, f := range modeFlags {
		if f == name {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want unikraft, no-mpk, no-acl or full)", name)
}

// MPKEnabled reports whether the mode programs real key permissions into
// thread PKRU registers (and therefore takes protection traps).
func (m Mode) MPKEnabled() bool { return m >= ModeNoACL }

// ACLEnabled reports whether the trap-and-map handler consults window
// descriptors before granting access.
func (m Mode) ACLEnabled() bool { return m == ModeFull }

// TrampolinesEnabled reports whether cross-cubicle calls go through
// trampolines at all.
func (m Mode) TrampolinesEnabled() bool { return m >= ModeTrampoline }
