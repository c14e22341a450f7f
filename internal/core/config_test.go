package core

import (
	"reflect"
	"testing"

	"repro/internal/tech"
)

// fieldStages names, for every leaf field of FlowConfig, the stage that
// reads it first; Name is read by none.
var fieldStages = map[string]Stage{
	"Name":                  Stage(NumStages),
	"Pattern.Front":         StagePartition,
	"Pattern.Back":          StagePartition,
	"TargetFreqGHz":         StageSynth,
	"Utilization":           StageFloorplan,
	"AspectRatio":           StageFloorplan,
	"BackPinFraction":       StagePartition,
	"Seed":                  StagePlace,
	"MaxDRVs":               StageRoute,
	"Route.GCellNm":         StageRoute,
	"Route.Iterations":      StageRoute,
	"Route.CapacityFactor":  StageRoute,
	"Route.PinSaturation":   StageRoute,
	"Route.PinCrowdingExp":  StageRoute,
	"Route.PinAccessFactor": StageRoute,
	"Route.HistoryGain":     StageRoute,
}

// TestFlowConfigStageTable walks every leaf field of FlowConfig: changing
// it alone must change Before(NumStages) (Name aside) and make
// firstAffectedStage return the stage fieldStages names for it. A field
// added to FlowConfig without a place in Before, or without a row here,
// fails. Every Before of a valid config must itself be valid, since the
// sweep executor opens its shared checkpoints under them.
func TestFlowConfigStageTable(t *testing.T) {
	base := DefaultFlowConfig(tech.Pattern{Front: 6, Back: 6}, 1.5, 0.72)
	base.BackPinFraction = 0.5
	base.Name = "base"
	for s := StageSynth; int(s) <= NumStages; s++ {
		if err := base.Before(s).Validate(ffetLib.Stack); err != nil {
			t.Errorf("Before(%v) is invalid: %v", s, err)
		}
	}

	mut := base
	leaves := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := range v.NumField() {
				name := v.Type().Field(i).Name
				if path != "" {
					name = path + "." + name
				}
				walk(name, v.Field(i))
			}
			return
		}
		leaves++
		old := reflect.ValueOf(v.Interface())
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.125)
		default:
			t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
		}
		defer v.Set(old)

		want, ok := fieldStages[path]
		if !ok {
			t.Errorf("%s: no stage in the test's table", path)
			return
		}
		if changed := mut.Before(Stage(NumStages)) != base.Before(Stage(NumStages)); changed != (path != "Name") {
			t.Errorf("%s: changes Before(NumStages) = %v", path, changed)
		}
		if got := firstAffectedStage(base, mut); got != want {
			t.Errorf("%s: first affected stage %v, want %v", path, got, want)
		}
	}
	walk("", reflect.ValueOf(&mut).Elem())
	if leaves != len(fieldStages) {
		t.Errorf("FlowConfig has %d leaf fields, the table names %d", leaves, len(fieldStages))
	}
	if mut != base {
		t.Fatal("walk did not restore the config")
	}
}
