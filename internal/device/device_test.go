package device

import "testing"

func TestSerialForVisitsAll(t *testing.T) {
	var seen [100]bool
	(Serial{}).For(100, func(i int) { seen[i] = true })
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d not visited", i)
		}
	}
	if (Serial{}).Workers() != 1 {
		t.Error("Serial.Workers != 1")
	}
}

func TestModelPricing(t *testing.T) {
	m := GPUModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CPUModel().Validate(); err != nil {
		t.Fatal(err)
	}
	if ht := m.HashTime(1 << 30); ht <= m.KernelLaunch {
		t.Error("hash time does not exceed launch latency for 1 GiB")
	}
	if m.HashTime(0) != m.KernelLaunch {
		t.Error("zero bytes should cost only the launch")
	}
	if m.TransferTime(0) != 0 {
		t.Error("zero transfer should be free")
	}
	// Monotonicity in size.
	if m.CompareTime(2048) < m.CompareTime(1024) {
		t.Error("compare time not monotone")
	}
	if m.NodeHashTime(100) <= 0 {
		t.Error("node hash time must be positive")
	}
}

func TestModelGapCPUvsGPU(t *testing.T) {
	// The calibrated models must preserve the ~4-orders-of-magnitude tree
	// construction gap of Fig. 8 for a multi-GB checkpoint.
	bytes := int64(7) << 30
	cpu := CPUModel().HashTime(bytes)
	gpu := GPUModel().HashTime(bytes)
	ratio := float64(cpu) / float64(gpu)
	if ratio < 1e3 || ratio > 1e5 {
		t.Errorf("CPU/GPU hash-time ratio = %.1f, want within [1e3, 1e5]", ratio)
	}
}

func TestModelValidate(t *testing.T) {
	bad := Model{Name: "bad", HashBytesPerSec: 0, CompareBytesPerSec: 1, TransferBytesPerSec: 1, NodeHashesPerSec: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero hash rate accepted")
	}
}

func TestRateTimeNeverNegative(t *testing.T) {
	if d := rateTime(-5, 1e9); d != 0 {
		t.Errorf("negative units priced %v", d)
	}
	if d := rateTime(100, 0); d != 0 {
		t.Errorf("zero rate priced %v", d)
	}
}
