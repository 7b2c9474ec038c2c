package refvm

import "math"

// Value kinds.
const (
	kInt uint8 = iota
	kFloat
	kPtr
)

// Value is the bytecode oracle's runtime scalar: a {kind, bits, type-index}
// word of at most 24 bytes, against the tree-walking interpreter's 56-byte
// (historically 72-byte) interface-carrying struct. Integers store their
// sign-extended payload in Bits; floats store IEEE-754 bits; pointers store
// the cell offset in Bits, the object handle in Obj (0 is the null
// pointer), and the pointee type in TIdx (pointer arithmetic scales by the
// pointee's cell count, exactly like interp.Pointer.Elem).
//
// TIdx indexes the compiled program's type table. For integer and float
// values it is normally a basic-type index (< numBasic, mirroring
// cc.BasicKind); values built from non-basic types — the zero-initializer
// quirk stores struct-typed zeros — carry that type's index and the
// arithmetic helpers treat them exactly like the tree-walker treats its
// non-basic cc.Type values: no truncation, signed, 64 bits wide.
type Value struct {
	Bits uint64
	Obj  int32
	TIdx int32
	Kind uint8
}

// vCell is one scalar memory slot of an object.
type vCell struct {
	val  Value
	init uint8 // cellUninit, cellSet or cellCounter
}

// Cell states. A counter cell is a set cell that the loop detector has
// marked while it proves a loop's period independent of the cell's value
// (see loop.go). Every value read tests for cellSet, so a read of a
// counter cell lands in the same slow branch as an uninitialized read.
const (
	cellUninit uint8 = iota
	cellSet
	cellCounter
)

// iOf mirrors reading the tree interpreter's Value.I: the integer payload
// for integers, zero for floats and pointers.
func iOf(v Value) int64 {
	if v.Kind != kInt {
		return 0
	}
	return int64(v.Bits)
}

// fOf mirrors Value.F: the float payload for floats, zero otherwise.
func fOf(v Value) float64 {
	if v.Kind != kFloat {
		return 0
	}
	return math.Float64frombits(v.Bits)
}

// off returns a pointer value's cell offset.
func (v Value) off() int64 { return int64(v.Bits) }

// isNull reports whether a pointer value is the null pointer.
func (v Value) isNull() bool { return v.Obj == 0 }

// typeOf mirrors reading the tree interpreter's Value.Typ, which is nil
// for pointer values: pointer typing flows through the pointee index.
func typeOf(v Value) int32 {
	if v.Kind == kPtr {
		return tidxNone
	}
	return v.TIdx
}

// isZero mirrors interp.Value.IsZero.
func (v Value) isZero() bool {
	switch v.Kind {
	case kInt:
		return v.Bits == 0
	case kFloat:
		return fOf(v) == 0
	default:
		return v.isNull()
	}
}

// mkInt builds an integer value of type ti, truncating to its width.
func (tt *typeTable) mkInt(x int64, ti int32) Value {
	return Value{Kind: kInt, Bits: uint64(tt.trunc(x, ti)), TIdx: ti}
}

// mkFloat builds a float value of type ti (float rounds through float32).
func (tt *typeTable) mkFloat(f float64, ti int32) Value {
	if ti == int32(basicFloat) {
		f = float64(float32(f))
	}
	return Value{Kind: kFloat, Bits: math.Float64bits(f), TIdx: ti}
}

// mkPtr builds a pointer value with pointee type elem.
func mkPtr(obj int32, off int64, elem int32) Value {
	return Value{Kind: kPtr, Bits: uint64(off), Obj: obj, TIdx: elem}
}
