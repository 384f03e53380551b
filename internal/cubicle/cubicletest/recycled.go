package cubicletest

import (
	"fmt"
	"reflect"
	"unsafe"
)

// The check that a recycled object starts clean. A free list's taker
// (cubicle's newWindow, lwip's takeSock and takeConn, httpd's takeConn,
// snapshot's Image.Reset) resets what it takes field by field; a field it
// forgets leaks one request's state into the next.
// A test poisons a retired object — every field set, the most any
// lifecycle could leave behind — takes it back and compares it with what
// the taker gives from an empty list.

// poison is the value Poison writes into every number and byte: one no
// new object holds (0xFF would read as a new window's classNone).
const poison = 0x5A

// Poison sets every field of the struct x points to, unexported ones and
// those of nested structs and arrays included: a number to 0x5A, a bool to
// true, a string to "poison", a slice to one poisoned element, a pointer
// or a map to a new (non-nil) one.
func Poison(x any) {
	poisonValue(reflect.ValueOf(x).Elem())
}

func poisonValue(v reflect.Value) {
	if !v.CanSet() {
		v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			poisonValue(v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			poisonValue(v.Index(i))
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		poisonValue(v.Index(0))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("poison")
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(poison)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(poison)
	default:
		panic(fmt.Sprintf("cubicletest: Poison cannot set a %v", v.Type()))
	}
}

// Fresh compares recycled, an object a taker reset, with fresh, what the
// same taker gives from an empty list (both pointers to one struct type),
// field by field, and returns the first difference, or nil. A slice
// compares by its elements: the capacity a recycled one keeps is what
// recycling is for, so an empty slice equals a nil one. Pointers and maps
// compare by identity.
func Fresh(recycled, fresh any) error {
	a, b := reflect.ValueOf(recycled).Elem(), reflect.ValueOf(fresh).Elem()
	return diff(a, b, a.Type().Name())
}

func diff(a, b reflect.Value, path string) error {
	differ := false
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if err := diff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); err != nil {
				return err
			}
		}
		return nil
	case reflect.Array, reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Errorf("%s holds %d elements, a fresh one %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if err := diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); err != nil {
				return err
			}
		}
		return nil
	case reflect.Pointer, reflect.Map:
		differ = a.Pointer() != b.Pointer()
	case reflect.Bool:
		differ = a.Bool() != b.Bool()
	case reflect.String:
		differ = a.String() != b.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		differ = a.Int() != b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		differ = a.Uint() != b.Uint()
	default:
		return fmt.Errorf("%s: cubicletest: Fresh cannot compare a %v", path, a.Type())
	}
	if differ {
		return fmt.Errorf("%s is %v, a fresh one's %v", path, a, b)
	}
	return nil
}
