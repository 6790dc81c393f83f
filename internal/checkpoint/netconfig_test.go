package checkpoint

import (
	"bytes"
	"reflect"
	"strconv"
	"testing"

	"peas/internal/geom"
	"peas/internal/node"
)

// TestEveryNetConfigLeafReachesTheKey walks node.Config by reflection and
// changes one leaf at a time — every scalar of every section, each optional
// slice's presence and each of its elements. AppendNetConfig, the encoding
// the job queue's content key and the snapshot are built on, must come out
// different every time: a field added to node.Config that the encoding
// leaves out would let two different runs share one cached result, and
// fails here instead.
func TestEveryNetConfigLeafReachesTheKey(t *testing.T) {
	base := node.DefaultConfig(3, 1)
	base.Positions = []geom.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}}
	base.NodeSeeds = []int64{7, 8, 9}
	want := AppendNetConfig(nil, &base)

	type leaf struct {
		name string
		path []int // a field index per struct, an element index per slice
	}
	var leaves []leaf
	var walk func(v reflect.Value, name string, path []int)
	walk = func(v reflect.Value, name string, path []int) {
		step := func(i int) []int { return append(path[:len(path):len(path)], i) }
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), name+"."+v.Type().Field(i).Name, step(i))
			}
		case reflect.Slice:
			leaves = append(leaves, leaf{name, path})
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), name+"["+strconv.Itoa(i)+"]", step(i))
			}
		default:
			leaves = append(leaves, leaf{name, path})
		}
	}
	walk(reflect.ValueOf(base), "Config", nil)

	for _, l := range leaves {
		c := base
		c.Positions = append([]geom.Point(nil), base.Positions...)
		c.NodeSeeds = append([]int64(nil), base.NodeSeeds...)
		v := reflect.ValueOf(&c).Elem()
		for _, i := range l.path {
			if v.Kind() == reflect.Struct {
				v = v.Field(i)
			} else {
				v = v.Index(i)
			}
		}
		switch v.Kind() {
		case reflect.Float64:
			v.SetFloat(v.Float() + 1.5)
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Slice:
			v.Set(reflect.Zero(v.Type()))
		default:
			t.Fatalf("%s: a %s leaf; teach this test, and AppendNetConfig, how to change it", l.name, v.Kind())
		}
		if bytes.Equal(AppendNetConfig(nil, &c), want) {
			t.Errorf("changing %s leaves AppendNetConfig's output unchanged", l.name)
		}
	}
	if len(leaves) < 35 {
		t.Fatalf("walked only %d leaves of node.Config", len(leaves))
	}
}
