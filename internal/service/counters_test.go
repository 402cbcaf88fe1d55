package service

import (
	"reflect"
	"testing"

	"pfcache/internal/lp"
)

// TestLPCountersDiffCoversEveryField gives every lp.Counters field its own
// value by reflection and requires the sweep block's difference and wire
// conversion to carry each one through, so a counter added to lp.Counters
// cannot silently report zero in sweep bodies and trajectory files.
func TestLPCountersDiffCoversEveryField(t *testing.T) {
	var before, after lp.Counters
	bv := reflect.ValueOf(&before).Elem()
	av := reflect.ValueOf(&after).Elem()
	typ := av.Type()
	for i := 0; i < av.NumField(); i++ {
		bv.Field(i).SetUint(uint64(i + 1))
		av.Field(i).SetUint(uint64(3 * (i + 1)))
	}
	diff := reflect.ValueOf(lpCountersDiff(after, before))
	for i := 0; i < diff.NumField(); i++ {
		if got, want := diff.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("lpCountersDiff: %s = %d, want %d", typ.Field(i).Name, got, want)
		}
	}
	wire := reflect.ValueOf(lpCountersWire(after))
	for i := 0; i < av.NumField(); i++ {
		name := typ.Field(i).Name
		f := wire.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("LPCountersWire has no field %s", name)
			continue
		}
		if got, want := f.Uint(), av.Field(i).Uint(); got != want {
			t.Errorf("lpCountersWire: %s = %d, want %d", name, got, want)
		}
	}
}
