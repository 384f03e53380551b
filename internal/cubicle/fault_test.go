package cubicle

import (
	"errors"
	"testing"
)

func TestAsFaultRecognisesAllFaultTypes(t *testing.T) {
	for name, v := range map[string]any{
		"protection": &ProtectionFault{Reason: "x"},
		"cfi":        &CFIFault{Reason: "x"},
		"api":        &APIError{Reason: "x"},
		"budget":     &BudgetFault{Reason: "x"},
		"contained":  &ContainedFault{Cause: ErrQuarantined},
	} {
		err, ok := AsFault(v)
		if !ok || err == nil {
			t.Errorf("AsFault(%s) = (%v, %v), want fault", name, err, ok)
		}
	}
	for name, v := range map[string]any{
		"string":  "boom",
		"error":   errors.New("boom"),
		"int":     42,
		"nil-ish": (*ProtectionFault)(nil), // still a fault pointer, typed
	} {
		if name == "nil-ish" {
			continue // typed nil is a fault value by design
		}
		if _, ok := AsFault(v); ok {
			t.Errorf("AsFault(%s) accepted a foreign panic value", name)
		}
	}
}

func TestCatchReturnsEachFaultType(t *testing.T) {
	for _, v := range []error{
		&ProtectionFault{Reason: "x"},
		&CFIFault{Reason: "x"},
		&APIError{Reason: "x"},
		&BudgetFault{Reason: "x"},
		&ContainedFault{Cause: ErrDead},
	} {
		v := v
		err := Catch(func() { panic(v) })
		if err != v {
			t.Errorf("Catch returned %v, want the panicked fault %v", err, v)
		}
	}
}

// TestCatchForeignPanicIdentity asserts the satellite fix: a foreign panic
// must cross Catch with its original value, not wrapped or restringified,
// so the runtime's chained-panic report keeps the faulting stack.
func TestCatchForeignPanicIdentity(t *testing.T) {
	type bug struct{ msg string }
	sentinel := &bug{msg: "application bug"}
	defer func() {
		r := recover()
		if r != any(sentinel) {
			t.Fatalf("foreign panic value changed identity: got %#v", r)
		}
	}()
	Catch(func() { panic(sentinel) })
	t.Fatal("foreign panic did not propagate")
}

// TestCatchNesting asserts a fault raised while handling another fault is
// caught by its own Catch and does not disturb the outer one.
func TestCatchNesting(t *testing.T) {
	inner := &APIError{Op: "inner", Reason: "first"}
	outer := &ProtectionFault{Reason: "second"}
	err := Catch(func() {
		if got := Catch(func() { panic(inner) }); got != inner {
			t.Errorf("inner Catch returned %v", got)
		}
		panic(outer)
	})
	if err != outer {
		t.Errorf("outer Catch returned %v, want %v", err, outer)
	}
	// And the pathological shape: a fault raised inside the deferred path
	// of a function that already faulted reaches the enclosing Catch.
	err = Catch(func() {
		defer panic(outer)
		panic(inner)
	})
	if err != outer {
		t.Errorf("fault-during-fault: Catch returned %v, want the later fault", err)
	}
}
