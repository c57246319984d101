package zoo

import (
	"encoding/json"
	"testing"

	"pask/internal/onnx"
)

func TestAllModelsBuildAndValidate(t *testing.T) {
	for _, s := range Models() {
		s := s
		t.Run(s.Abbr, func(t *testing.T) {
			g, err := s.Build(1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := g.InferShapes(); err != nil {
				t.Fatal(err)
			}
			if g.NumOps() == 0 {
				t.Fatal("empty model")
			}
		})
	}
}

func TestModelCountAndAbbrs(t *testing.T) {
	ms := Models()
	if len(ms) != 12 {
		t.Fatalf("zoo has %d models, want 12", len(ms))
	}
	want := []string{"alex", "vgg", "res", "reg", "eff", "rcnn", "ssd", "fcn", "unet", "vit", "swin", "swin2"}
	for i, abbr := range want {
		if ms[i].Abbr != abbr {
			t.Fatalf("model %d abbr = %s, want %s", i, ms[i].Abbr, abbr)
		}
		if _, err := ByAbbr(abbr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ByAbbr("bert"); err == nil {
		t.Fatal("unknown abbr should fail")
	}
}

func TestBatchParametrization(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		g, err := ResNet34(batch)
		if err != nil {
			t.Fatal(err)
		}
		if g.InputShape.N != batch {
			t.Fatalf("input batch = %d, want %d", g.InputShape.N, batch)
		}
		shapes, err := g.InferShapes()
		if err != nil {
			t.Fatal(err)
		}
		if shapes[g.Output].N != batch {
			t.Fatalf("output batch = %d", shapes[g.Output].N)
		}
	}
}

// TestParamSizesMatchTorchvision checks the zoo reproduces the well-known
// checkpoint sizes (fp32 MB) of the torchvision implementations within 15%.
func TestParamSizesMatchTorchvision(t *testing.T) {
	want := map[string]float64{
		"alex": 244, // 61.1M params
		"vgg":  553, // 138.4M
		"res":  87,  // 21.8M
		"vit":  346, // 86.6M
	}
	for abbr, mb := range want {
		s, err := ByAbbr(abbr)
		if err != nil {
			t.Fatal(err)
		}
		g, err := s.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(g.ParamBytes()) / 1e6
		if got < mb*0.85 || got > mb*1.15 {
			t.Errorf("%s params = %.1fMB, want ~%.0fMB", abbr, got, mb)
		}
	}
}

func TestTransformersHaveExactlyOneConv(t *testing.T) {
	for _, abbr := range []string{"vit", "swin", "swin2"} {
		s, _ := ByAbbr(abbr)
		g, err := s.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		convs := 0
		matmuls := 0
		for _, n := range g.Nodes {
			switch n.Op {
			case onnx.OpConv:
				convs++
			case onnx.OpMatMul:
				matmuls++
			}
		}
		if convs != 1 {
			t.Errorf("%s has %d convs, want exactly 1 (patch embed)", abbr, convs)
		}
		if matmuls < 20 {
			t.Errorf("%s has only %d matmuls", abbr, matmuls)
		}
	}
}

func TestCNNsAreConvDominated(t *testing.T) {
	for _, abbr := range []string{"alex", "vgg", "res", "reg", "eff", "rcnn", "ssd", "fcn", "unet"} {
		s, _ := ByAbbr(abbr)
		g, err := s.Build(1)
		if err != nil {
			t.Fatalf("%s: %v", abbr, err)
		}
		convs := 0
		for _, n := range g.Nodes {
			if n.Op == onnx.OpConv {
				convs++
			}
		}
		if convs < 5 {
			t.Errorf("%s has only %d convs", abbr, convs)
		}
	}
}

func TestModelsAreDeterministic(t *testing.T) {
	a, err := EfficientNetB7(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EfficientNetB7(1)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.ToJSON()
	jb, _ := b.ToJSON()
	if string(ja) != string(jb) {
		t.Fatal("two builds of the same model differ")
	}
}

func TestSwinVariantsDiffer(t *testing.T) {
	a, err := SwinB(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SwinV2B(1)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.ToJSON()
	jb, _ := b.ToJSON()
	if string(ja) == string(jb) {
		t.Fatal("Swin and SwinV2 should differ (pre vs post norm)")
	}
}

// TestZooJSONRoundTrip: every zoo model survives ONNX-JSON export/import
// with validation (the interchange path of cmd/modelzoo -export).
func TestZooJSONRoundTrip(t *testing.T) {
	for _, s := range Models() {
		g, err := s.Build(1)
		if err != nil {
			t.Fatal(err)
		}
		data, err := g.ToJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back onnx.Graph
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: %v", s.Abbr, err)
		}
		if _, err := back.InferShapes(); err != nil {
			t.Fatalf("%s: %v", s.Abbr, err)
		}
		if back.NumOps() != g.NumOps() || back.ParamBytes() != g.ParamBytes() {
			t.Fatalf("%s: round trip mismatch (%d/%d ops, %d/%d bytes)",
				s.Abbr, back.NumOps(), g.NumOps(), back.ParamBytes(), g.ParamBytes())
		}
	}
}
