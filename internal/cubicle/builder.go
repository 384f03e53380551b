package cubicle

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"cubicleos/internal/isa"
)

// ExportDecl declares one public entry point of a component: its symbol
// name, binary interface (register words and in-stack argument bytes, the
// information the builder extracts from the function signature in §5.2),
// and the implementing function.
type ExportDecl struct {
	Name       string
	RegArgs    int
	StackBytes int
	Fn         Fn
}

// Component describes one library OS or application component, the unit
// that Unikraft compiles as a separate dynamic library (§5.2 task 1). The
// developer specifies whether it becomes an isolated or a shared cubicle.
type Component struct {
	Name    string
	Kind    Kind
	Exports []ExportDecl
	// Image is the component's object image. If nil, the builder
	// synthesises one whose code section exports the declared symbols.
	Image *isa.Image
	// OnRestart, when set, rebuilds the component's Go-side state after
	// the supervisor restarts its cubicle (the simulator's analogue of the
	// component's initialiser re-running on the fresh image).
	OnRestart func()
	// Snapshot, when set, serialises the component's Go-side state into a
	// deterministic blob for warm recovery. It runs at quiescent points
	// (no open windows, no in-flight crossing into the cubicle); returning
	// an error vetoes the checkpoint round — the component is mid-state
	// (live connections, non-idle sockets) and the previous checkpoint
	// stays good. The SnapCtx grants monitor-privileged access to simulated
	// memory so content held in foreign pages (e.g. ALLOC-owned file pages)
	// can be captured too.
	Snapshot func(*SnapCtx) ([]byte, error)
	// Restore rebuilds the component's Go-side state from a Snapshot blob
	// after the supervisor warm-restarts its cubicle. Returning an error
	// aborts the warm restore; the supervisor falls back to the cold
	// OnRestart path. A component providing Snapshot must provide Restore.
	Restore func(*SnapCtx, []byte) error
}

// descriptor is the canonical byte encoding of a trampoline descriptor,
// the data the builder signs (§5.2 task 3: the generated trampoline "must
// be generated and signed by the trusted builder").
func descriptor(comp, sym string, regArgs, stackBytes int) []byte {
	b := make([]byte, 0, len(comp)+len(sym)+20)
	b = append(b, comp...)
	b = append(b, 0)
	b = append(b, sym...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(regArgs))
	b = binary.LittleEndian.AppendUint32(b, uint32(stackBytes))
	return b
}

// SystemImage is the builder's output: the component set plus the signed
// trampoline descriptors the loader verifies before installing them.
type SystemImage struct {
	Components []*Component
	sigs       map[string][32]byte // "comp.sym" -> HMAC of descriptor
	secret     [32]byte
}

// TamperSignature corrupts the stored signature for comp.sym; used by
// tests to prove the loader rejects unsigned trampolines.
func (si *SystemImage) TamperSignature(comp, sym string) {
	s := si.sigs[comp+"."+sym]
	s[0] ^= 0xFF
	si.sigs[comp+"."+sym] = s
}

// verify recomputes and checks a descriptor signature.
func (si *SystemImage) verify(comp, sym string, regArgs, stackBytes int) bool {
	mac := hmac.New(sha256.New, si.secret[:])
	mac.Write(descriptor(comp, sym, regArgs, stackBytes))
	var want [32]byte
	copy(want[:], mac.Sum(nil))
	got, ok := si.sigs[comp+"."+sym]
	return ok && hmac.Equal(got[:], want[:])
}

// Builder is the trusted component builder of §4/§5.2. It piggy-backs on
// the component structure (one component per Unikraft library), identifies
// the public symbols of each component, and generates a signed trampoline
// descriptor for each.
type Builder struct {
	comps  []*Component
	byName map[string]*Component
	secret [32]byte
}

// NewBuilder creates a builder with a fresh signing secret.
func NewBuilder() *Builder {
	b := &Builder{byName: make(map[string]*Component)}
	if _, err := rand.Read(b.secret[:]); err != nil {
		panic(err)
	}
	return b
}

// Add registers a component with the builder. Returns an error for a
// duplicate name or an export without an implementation.
func (b *Builder) Add(c *Component) error {
	if c.Name == "" {
		return fmt.Errorf("builder: component with empty name")
	}
	if _, dup := b.byName[c.Name]; dup {
		return fmt.Errorf("builder: duplicate component %q", c.Name)
	}
	seen := make(map[string]bool)
	for _, ex := range c.Exports {
		if ex.Fn == nil {
			return fmt.Errorf("builder: component %q export %q has no implementation", c.Name, ex.Name)
		}
		if ex.RegArgs < 0 || ex.RegArgs > 6 {
			return fmt.Errorf("builder: component %q export %q: register args must be 0..6 (SysV)", c.Name, ex.Name)
		}
		if ex.StackBytes < 0 {
			return fmt.Errorf("builder: component %q export %q: negative stack bytes", c.Name, ex.Name)
		}
		if seen[ex.Name] {
			return fmt.Errorf("builder: component %q exports %q twice", c.Name, ex.Name)
		}
		seen[ex.Name] = true
	}
	b.comps = append(b.comps, c)
	b.byName[c.Name] = c
	return nil
}

// MustAdd is Add for static deployment descriptions.
func (b *Builder) MustAdd(c *Component) {
	if err := b.Add(c); err != nil {
		panic(err)
	}
}

// Build produces the system image: it synthesises object images for
// components that lack one (exporting exactly the declared public
// symbols, the equivalent of exportsyms.uk) and signs every trampoline
// descriptor.
func (b *Builder) Build() (*SystemImage, error) {
	if len(b.comps) == 0 {
		return nil, fmt.Errorf("builder: no components")
	}
	si := &SystemImage{
		Components: b.comps,
		sigs:       make(map[string][32]byte),
		secret:     b.secret,
	}
	for _, c := range b.comps {
		if c.Image == nil {
			names := make([]string, len(c.Exports))
			for i, ex := range c.Exports {
				names[i] = ex.Name
			}
			c.Image = isa.Synthesize(c.Name, names, isa.SynthOptions{Seed: int64(len(c.Name)) * 1315423911})
		}
		for _, ex := range c.Exports {
			if c.Image.FindExport(ex.Name) == nil {
				return nil, fmt.Errorf("builder: component %q image does not define exported symbol %q", c.Name, ex.Name)
			}
			mac := hmac.New(sha256.New, b.secret[:])
			mac.Write(descriptor(c.Name, ex.Name, ex.RegArgs, ex.StackBytes))
			var sig [32]byte
			copy(sig[:], mac.Sum(nil))
			si.sigs[c.Name+"."+ex.Name] = sig
		}
	}
	return si, nil
}
