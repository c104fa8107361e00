package smartpointer

import "testing"

// TestServiceTimeAllocBudget pins CostModel.ServiceTime at zero
// allocations: the simulator calls it for every step a replica serves,
// and it reads the complexity exponent straight from Table I. The table
// is shared, so this test also checks that callers get copies of it.
func TestServiceTimeAllocBudget(t *testing.T) {
	models := DefaultCostModels()
	var sink int64
	for _, k := range []Kind{KindHelper, KindBonds, KindCSym, KindCNA} {
		cm := models[k]
		got := testing.AllocsPerRun(100, func() {
			sink += int64(cm.ServiceTime(refAtoms256, ModelParallel, 4, true))
			sink += int64(cm.ServiceTime(2*refAtoms256, ModelTree, 8, false))
		})
		if got != 0 {
			t.Errorf("%v: %v allocations per ServiceTime pair, budget 0", k, got)
		}
	}
	if sink == 0 {
		t.Fatal("service times summed to zero")
	}

	rows := Table1()
	rows[1].Exponent = 0
	rows[1].Models[0] = ModelTree
	c := CharacteristicsFor(KindBonds)
	c.Models[1] = ModelTree
	if b := CharacteristicsFor(KindBonds); b.Exponent != 2 || b.Models[0] != ModelSerial || b.Models[1] != ModelRR {
		t.Fatalf("a caller's copy wrote through to Table I: %+v", b)
	}
}
