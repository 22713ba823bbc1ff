// Package sqldb implements the embedded relational storage engine that BANKS
// runs on. It is the substitute for the IBM Universal Database the paper used
// via JDBC: typed relations with enforced primary- and foreign-key
// constraints, which the graph builder (internal/graph) turns into the BANKS
// data graph.
//
// The engine is deliberately self-contained: tables live in memory, writes
// are serialized per database, and reads may run concurrently. SQL access is
// layered on top by internal/sqlparse and internal/sqlexec.
package sqldb

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the column types supported by the engine.
type Type uint8

// Supported column types.
const (
	TypeNull Type = iota // the type of the NULL literal only; not a column type
	TypeInt
	TypeFloat
	TypeText
	TypeBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// ParseType maps a SQL type name to a Type. It accepts the common synonyms
// (INT/INTEGER/BIGINT, FLOAT/REAL/DOUBLE, TEXT/VARCHAR/CHAR, BOOL/BOOLEAN).
func ParseType(name string) (Type, error) {
	switch strings.ToUpper(name) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return TypeInt, nil
	case "FLOAT", "REAL", "DOUBLE":
		return TypeFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING", "CLOB":
		return TypeText, nil
	case "BOOL", "BOOLEAN":
		return TypeBool, nil
	}
	return TypeNull, fmt.Errorf("sqldb: unknown type %q", name)
}

// Value is a single typed SQL value. The zero Value is NULL.
//
// Value is a small struct rather than an interface so that rows ([]Value) are
// a single contiguous allocation and comparisons avoid dynamic dispatch; this
// matters when the graph builder scans hundred-thousand-row tables.
type Value struct {
	T Type
	I int64
	F float64
	S string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int returns an INTEGER value.
func Int(v int64) Value { return Value{T: TypeInt, I: v} }

// Float returns a FLOAT value.
func Float(v float64) Value { return Value{T: TypeFloat, F: v} }

// Text returns a TEXT value.
func Text(v string) Value { return Value{T: TypeText, S: v} }

// Bool returns a BOOLEAN value.
func Bool(v bool) Value {
	if v {
		return Value{T: TypeBool, I: 1}
	}
	return Value{T: TypeBool}
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.T == TypeNull }

// AsBool reports the truth value; NULL and non-boolean values are false
// unless they coerce naturally (non-zero numbers are true).
func (v Value) AsBool() bool {
	switch v.T {
	case TypeBool, TypeInt:
		return v.I != 0
	case TypeFloat:
		return v.F != 0
	case TypeText:
		return v.S != ""
	}
	return false
}

// AsFloat returns the numeric value as float64 (0 for non-numeric).
func (v Value) AsFloat() float64 {
	switch v.T {
	case TypeInt, TypeBool:
		return float64(v.I)
	case TypeFloat:
		return v.F
	}
	return 0
}

// String renders the value the way the SQL shell and the browser display it.
func (v Value) String() string {
	switch v.T {
	case TypeNull:
		return "NULL"
	case TypeInt:
		return strconv.FormatInt(v.I, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case TypeText:
		return v.S
	case TypeBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	}
	return "?"
}

// SQLLiteral renders the value as a SQL literal (strings quoted and escaped).
func (v Value) SQLLiteral() string {
	if v.T == TypeText {
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	}
	return v.String()
}

// Convert coerces v to type t, returning an error when the conversion is
// lossy or nonsensical. NULL converts to NULL of any type.
func (v Value) Convert(t Type) (Value, error) {
	if v.T == TypeNull || v.T == t {
		return v, nil
	}
	switch t {
	case TypeInt:
		switch v.T {
		case TypeFloat:
			if v.F == float64(int64(v.F)) {
				return Int(int64(v.F)), nil
			}
		case TypeBool:
			return Int(v.I), nil
		case TypeText:
			if i, err := strconv.ParseInt(v.S, 10, 64); err == nil {
				return Int(i), nil
			}
		}
	case TypeFloat:
		switch v.T {
		case TypeInt:
			return Float(float64(v.I)), nil
		case TypeText:
			if f, err := strconv.ParseFloat(v.S, 64); err == nil {
				return Float(f), nil
			}
		}
	case TypeText:
		return Text(v.String()), nil
	case TypeBool:
		switch v.T {
		case TypeInt:
			return Bool(v.I != 0), nil
		}
	}
	return Null(), fmt.Errorf("sqldb: cannot convert %s %q to %s", v.T, v.String(), t)
}

// Compare orders two values: -1, 0, or +1. NULL sorts before everything.
// Numeric types compare numerically across INT/FLOAT/BOOL; TEXT compares
// lexicographically. Comparing TEXT to a numeric type is an error.
func (v Value) Compare(o Value) (int, error) {
	if v.T == TypeNull || o.T == TypeNull {
		switch {
		case v.T == o.T:
			return 0, nil
		case v.T == TypeNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	vNum := v.T == TypeInt || v.T == TypeFloat || v.T == TypeBool
	oNum := o.T == TypeInt || o.T == TypeFloat || o.T == TypeBool
	switch {
	case vNum && oNum:
		if v.T == TypeInt && o.T == TypeInt {
			switch {
			case v.I < o.I:
				return -1, nil
			case v.I > o.I:
				return 1, nil
			}
			return 0, nil
		}
		a, b := v.AsFloat(), o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		}
		return 0, nil
	case v.T == TypeText && o.T == TypeText:
		return strings.Compare(v.S, o.S), nil
	}
	return 0, fmt.Errorf("sqldb: cannot compare %s with %s", v.T, o.T)
}

// Equal reports whether the two values are equal under Compare semantics.
// NULL equals nothing, including NULL (SQL three-valued logic collapses to
// false here; use IsNull to test for NULL explicitly).
func (v Value) Equal(o Value) bool {
	if v.T == TypeNull || o.T == TypeNull {
		return false
	}
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// EncodeKey appends a self-delimiting encoding of v to dst, suitable for use
// as a map key component (via string(dst)). Distinct values encode
// distinctly; numerically equal INT and FLOAT values encode identically so
// that index lookups match across the numeric types.
func (v Value) EncodeKey(dst []byte) []byte {
	switch v.T {
	case TypeNull:
		return append(dst, 'n')
	case TypeInt:
		dst = append(dst, 'i')
		return strconv.AppendInt(dst, v.I, 10)
	case TypeFloat:
		if v.F == float64(int64(v.F)) {
			dst = append(dst, 'i')
			return strconv.AppendInt(dst, int64(v.F), 10)
		}
		dst = append(dst, 'f')
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case TypeText:
		dst = append(dst, 't')
		dst = strconv.AppendInt(dst, int64(len(v.S)), 10)
		dst = append(dst, ':')
		return append(dst, v.S...)
	case TypeBool:
		dst = append(dst, 'b')
		if v.I != 0 {
			return append(dst, '1')
		}
		return append(dst, '0')
	}
	return dst
}

// KeyString returns the EncodeKey form of v as a string.
func (v Value) KeyString() string { return string(v.EncodeKey(nil)) }

// EncodeRowKey encodes a composite key from the given values.
func EncodeRowKey(vals []Value) string { return string(appendRowKey(nil, vals)) }

// appendRowKey appends the EncodeRowKey form of vals to dst.
func appendRowKey(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = append(v.EncodeKey(dst), 0)
	}
	return dst
}
