package check

import "reflect"

// PointerPath returns the path to the first Go pointer inside a value of
// type t (a pointer, slice, string, map, channel, function or interface
// field, at any depth of arrays and structs), or "" if t holds none. The
// arena tests use it to prove a type the garbage collector never scans.
func PointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Array:
		if t.Len() == 0 {
			return ""
		}
		return PointerPath(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := PointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
		reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
		return path + " (" + t.Kind().String() + ")"
	default:
		return ""
	}
}
