package main

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"fpgauv"
	"fpgauv/internal/dnndk"
	"fpgauv/internal/dpu"
	"fpgauv/internal/nn"
	"fpgauv/internal/tensor"
)

const (
	benchmarkName = "VGGNet"
	imagePool     = 256 // distinct seeded images a serving workload draws from
	jobImages     = 16  // images per closed-loop job: exactly one micro-batch
)

// makeImages generates n seeded CHW images the way the model zoo's own
// evaluation sets are shaped — a class prototype plus per-sample noise —
// so predictions spread over the classes instead of collapsing onto one.
// The program never sees the seed, only these tensors.
func makeImages(seed int64, shape nn.Shape, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	protos := make([]*tensor.Tensor, 10)
	for i := range protos {
		protos[i] = tensor.New(shape.C, shape.H, shape.W)
		protos[i].FillRandn(rng, 1.0)
	}
	imgs := make([]*tensor.Tensor, n)
	for i := range imgs {
		x := tensor.New(shape.C, shape.H, shape.W)
		x.FillRandn(rng, 0.6)
		if err := x.Add(protos[i%len(protos)]); err != nil {
			panic(err) // shapes match by construction
		}
		imgs[i] = x
	}
	return imgs
}

// oraclePreds computes the expected class of every image on a separate
// runtime held at nominal voltage with the naive direct conv/FC kernels
// forced on: no GEMM lowering, no sparse walk, no faults, no fleet. The
// serving stack must reproduce these exactly. pruneSparsity selects the
// same block-pruned kernel the pruned pool deploys (pruning and
// calibration are deterministic, so the two kernels are identical).
func oraclePreds(images []*tensor.Tensor, pruneSparsity float64) ([]int, error) {
	p, err := fpgauv.NewPlatform(1)
	if err != nil {
		return nil, err
	}
	p.Runtime().DPU().SetReferenceKernels(true)
	dep, err := dnndk.DeployBenchmark(p.Runtime(), benchmarkName, dnndk.DeployOptions{
		Tiny:        true,
		Sparsity:    pruneSparsity,
		PruneBlocks: pruneSparsity > 0,
		Images:      1,
	})
	if err != nil {
		return nil, fmt.Errorf("oracle deploy: %w", err)
	}
	scratch := dpu.NewScratch()
	rng := rand.New(rand.NewSource(1)) // unused at nominal: both fault probabilities are 0
	preds := make([]int, len(images))
	for i, img := range images {
		res, err := dep.Task.RunWith(scratch, img, rng)
		if err != nil {
			return nil, fmt.Errorf("oracle image %d: %w", i, err)
		}
		if res.MACFaults != 0 || res.BRAMFaults != 0 {
			return nil, fmt.Errorf("oracle image %d: faults at nominal voltage", i)
		}
		preds[i] = res.Pred
	}
	return preds, nil
}

// jsonBody encodes an image as the /v1/infer "pixels" form. Floats are
// written in the shortest form that round-trips float32, so the server
// decodes bit-identical pixels and the oracle applies.
func jsonBody(img *tensor.Tensor) []byte {
	b := make([]byte, 0, 12*img.Size()+16)
	b = append(b, `{"pixels":[`...)
	for i, v := range img.Data() {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(v), 'g', -1, 32)
	}
	return append(b, "]}"...)
}

// b64Body encodes an image as the /v1/infer "image_b64" form:
// base64 of little-endian float32s.
func b64Body(img *tensor.Tensor) []byte {
	raw := make([]byte, 4*img.Size())
	for i, v := range img.Data() {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	return []byte(`{"image_b64":"` + base64.StdEncoding.EncodeToString(raw) + `"}`)
}
