package models

import (
	"math"
	"sort"
	"testing"

	"fpgauv/internal/nn"
	"fpgauv/internal/tensor"
)

func TestZooMatchesTable1Structure(t *testing.T) {
	for _, preset := range []Preset{Tiny, Small} {
		zoo := All(preset)
		if len(zoo) != 5 {
			t.Fatalf("%v: zoo size %d", preset, len(zoo))
		}
		wantLayers := map[string]int{
			"VGGNet": 6, "GoogleNet": 21, "AlexNet": 8, "ResNet50": 50, "Inception": 22,
		}
		wantClasses := map[string]int{
			"VGGNet": 10, "GoogleNet": 10, "AlexNet": 2, "ResNet50": 1000, "Inception": 1000,
		}
		for _, b := range zoo {
			if got := b.WeightLayers(); got != wantLayers[b.Name] {
				t.Errorf("%v %s: %d weight layers, want %d (Table 1)", preset, b.Name, got, wantLayers[b.Name])
			}
			if b.Classes != wantClasses[b.Name] {
				t.Errorf("%s: %d classes", b.Name, b.Classes)
			}
			if b.Graph.OutputShape().Elems() != b.Classes {
				t.Errorf("%s: output %v != %d classes", b.Name, b.Graph.OutputShape(), b.Classes)
			}
			if b.ParamCount() == 0 || b.MACs() == 0 {
				t.Errorf("%s: zero params/MACs", b.Name)
			}
		}
	}
}

func TestParameterOrderingMatchesPaper(t *testing.T) {
	// Paper sizes: AlexNet 233.2 > Inception 107.3 > ResNet 102.5 >
	// VGG 8.7 > GoogleNet 6.6 MB. The scaled zoo must preserve the
	// ordering (Inception/ResNet may swap within 15%: the paper values
	// differ by <5%).
	zoo := All(Small)
	params := map[string]int64{}
	for _, b := range zoo {
		params[b.Name] = b.ParamCount()
	}
	if !(params["AlexNet"] > params["Inception"] && params["AlexNet"] > params["ResNet50"]) {
		t.Errorf("AlexNet must be largest: %v", params)
	}
	if !(params["ResNet50"] > params["VGGNet"] && params["Inception"] > params["VGGNet"]) {
		t.Errorf("ILSVRC models must exceed VGG: %v", params)
	}
	if params["VGGNet"] <= params["GoogleNet"] {
		t.Errorf("VGG must exceed GoogleNet: %v", params)
	}
}

func TestAllBenchmarksInfer(t *testing.T) {
	for _, b := range All(Tiny) {
		ds := b.MakeDataset(2, 1)
		out, err := b.Graph.Forward(ds.Inputs[0])
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		var sum float64
		for _, v := range out.Data() {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Errorf("%s: softmax sum %.5f", b.Name, sum)
		}
	}
}

func TestWeightsDeterministicPerPreset(t *testing.T) {
	a, err := New("VGGNet", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("VGGNet", Tiny)
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.New(3, 32, 32)
	in.FillRandn(rngFor("probe", Tiny), 1)
	oa, err := a.Graph.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Graph.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range oa.Data() {
		if oa.Data()[i] != ob.Data()[i] {
			t.Fatal("same benchmark must have identical weights across constructions")
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := New("LeNet", Small); err == nil {
		t.Fatal("unknown name must fail")
	}
}

func TestDatasetGeneration(t *testing.T) {
	b, _ := New("VGGNet", Tiny)
	d1 := b.MakeDataset(10, 42)
	d2 := b.MakeDataset(10, 42)
	if d1.Len() != 10 {
		t.Fatal("len")
	}
	for i := range d1.Inputs {
		a, bb := d1.Inputs[i].Data(), d2.Inputs[i].Data()
		for j := range a {
			if a[j] != bb[j] {
				t.Fatal("datasets must be seed-deterministic")
			}
		}
	}
	d3 := b.MakeDataset(10, 43)
	same := true
	for j, v := range d1.Inputs[0].Data() {
		if v != d3.Inputs[0].Data()[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestPlantLabelsPinsAccuracy(t *testing.T) {
	b, _ := New("VGGNet", Tiny)
	d := b.MakeDataset(200, 7)
	preds := make([]int, 200)
	for i := range preds {
		preds[i] = i % 10
	}
	if err := d.PlantLabels(preds, 86, 3); err != nil {
		t.Fatal(err)
	}
	acc, err := d.Accuracy(preds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(acc-86) > 0.51 {
		t.Fatalf("planted accuracy = %.2f, want 86±0.5", acc)
	}
	// Random predictions approach chance level.
	wrong := make([]int, 200)
	for i := range wrong {
		wrong[i] = (i * 7) % 10
	}
	accWrong, err := d.Accuracy(wrong)
	if err != nil {
		t.Fatal(err)
	}
	if accWrong > 40 {
		t.Fatalf("uncorrelated predictions should score near chance, got %.1f", accWrong)
	}
}

func TestPlantLabelsValidation(t *testing.T) {
	b, _ := New("VGGNet", Tiny)
	d := b.MakeDataset(4, 1)
	if err := d.PlantLabels([]int{1}, 86, 1); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if err := d.PlantLabels([]int{1, 2, 3, 4}, 120, 1); err == nil {
		t.Fatal("bad accuracy must fail")
	}
	if _, err := d.Accuracy([]int{1, 2, 3, 4}); err == nil {
		t.Fatal("accuracy before planting must fail")
	}
}

func TestUtilScalesAverageToOne(t *testing.T) {
	// The power model's 12.59 W average is defined at UtilScale 1.0;
	// the per-benchmark factors must average to ≈1 so the measured
	// cross-benchmark mean matches §4.1.
	var sum float64
	zoo := All(Small)
	for _, b := range zoo {
		sum += b.UtilScale
	}
	if avg := sum / float64(len(zoo)); math.Abs(avg-1) > 0.005 {
		t.Fatalf("mean UtilScale = %.4f, want ≈1", avg)
	}
}

func TestStressOrderingTracksModelSize(t *testing.T) {
	// Bigger/deeper nets exercise longer paths: ResNet and Inception
	// must carry the largest stress factors (they are the most
	// vulnerable in Fig. 6).
	stress := map[string]float64{}
	for _, b := range All(Small) {
		stress[b.Name] = b.Stress
	}
	names := []string{"VGGNet", "GoogleNet", "AlexNet", "ResNet50", "Inception"}
	sorted := append([]string(nil), names...)
	sort.Slice(sorted, func(i, j int) bool { return stress[sorted[i]] > stress[sorted[j]] })
	if !(sorted[0] == "ResNet50" || sorted[0] == "Inception") {
		t.Fatalf("most stressed should be ResNet/Inception, got %s", sorted[0])
	}
}

func TestGOpAccounting(t *testing.T) {
	b, _ := New("VGGNet", Small)
	if g := b.GOp(); g <= 0 || g > 1 {
		t.Fatalf("VGGNet GOp per inference = %.4f, expected small positive", g)
	}
}

func TestPresetString(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Preset(9).String() != "preset?" {
		t.Fatal("preset strings")
	}
}

// TestCenteringMatchesSequential pins each benchmark's centered
// classifier bias, bit for bit, to the sequential centering loop the
// fan-out replaced: probe forwards in order, logits summed into a
// float64 mean image by image. (Tiny only: the order argument does not
// depend on the preset, and Small costs ~20 s under -race.)
func TestCenteringMatchesSequential(t *testing.T) {
	for _, name := range Names() {
		got, err := New(name, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		ref := builders[name](Tiny)
		nodes := ref.Graph.Nodes()
		var id nn.NodeID
		for _, n := range nodes {
			if _, ok := n.Op.(*nn.Dense); ok {
				id = n.ID
			}
		}
		const probeN = 16
		probe := NewDataset("probe", ref.Classes, ref.InputShape, probeN, seedFor(ref.Name)^0x9e0be)
		classifier := nodes[id].Op.(*nn.Dense)
		mean := make([]float64, classifier.Out)
		for _, img := range probe.Inputs {
			outs, err := ref.Graph.ForwardAll(img)
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range outs[id].Data() {
				mean[c] += float64(v) / probeN
			}
		}
		gotBias := got.Graph.Nodes()[id].Op.(*nn.Dense).Bias
		for c := range classifier.Bias {
			want := classifier.Bias[c] - float32(mean[c])
			if math.Float32bits(gotBias[c]) != math.Float32bits(want) {
				t.Fatalf("%s: bias[%d] = %v, sequential %v", name, c, gotBias[c], want)
			}
		}
	}
}
