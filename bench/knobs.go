package main

import (
	"reflect"
	"sort"
	"sync"

	"repro/internal/core"
)

// The optional engine knobs this benchmark turns. ROADMAP item 3 plans
// to delete some of them, and a change that deletes one may not edit
// bench/, so they are named here once and set by field name: when a
// field is gone the benchmark still builds, measures the default path,
// and records the absence in the result context.
const (
	knobRecycle    = "Recycle"
	knobShards     = "Shards"
	knobBatchDraws = "BatchDraws"
)

var (
	absentMu     sync.Mutex
	absentFields = map[string]bool{}
)

// setKnob sets cfg.<name> = value if core.Config still has a field of
// that name and a compatible type, and reports whether it did.
func setKnob(cfg *core.Config, name string, value any) bool {
	return setField(reflect.ValueOf(cfg).Elem(), name, value)
}

// setField is setKnob on any struct value (split out so the unit test
// can exercise a struct that lacks the field).
func setField(strct reflect.Value, name string, value any) bool {
	f := strct.FieldByName(name)
	v := reflect.ValueOf(value)
	if !f.IsValid() || !f.CanSet() || !v.Type().ConvertibleTo(f.Type()) {
		absentMu.Lock()
		absentFields[name] = true
		absentMu.Unlock()
		return false
	}
	f.Set(v.Convert(f.Type()))
	return true
}

// absentKnobs lists the knobs a setKnob call found missing so far.
func absentKnobs() []string {
	absentMu.Lock()
	defer absentMu.Unlock()
	out := make([]string, 0, len(absentFields))
	for k := range absentFields {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
