package core

import (
	"encoding/json"
	"fmt"
)

// Instance is one SLADE problem instance: a bin menu plus a reliability
// threshold per atomic task. Tasks are identified by their index 0..N()-1.
// A homogeneous instance is stored as (n, t, θ) — O(1) whatever n is —
// and a heterogeneous one as its threshold slice; every accessor behaves
// identically on both forms.
type Instance struct {
	bins BinSet
	n    int
	// thresholds holds one threshold per task; nil in the homogeneous
	// form, where every task's threshold is t and its demand theta.
	thresholds []float64
	t, theta   float64
}

// NewHomogeneous builds an instance of n atomic tasks sharing the threshold
// t, in O(1) time and space.
func NewHomogeneous(bins BinSet, n int, t float64) (*Instance, error) {
	if n < 0 {
		return nil, fmt.Errorf("core: negative task count %d", n)
	}
	if err := validateMenu(bins, n); err != nil {
		return nil, err
	}
	if n > 0 && !(t >= 0 && t < 1) {
		return nil, fmt.Errorf("core: threshold t[0]=%v outside [0,1)", t)
	}
	return &Instance{bins: bins, n: n, t: t, theta: Theta(t)}, nil
}

// NewHeterogeneous builds an instance with one threshold per atomic task.
// The thresholds slice is copied.
func NewHeterogeneous(bins BinSet, thresholds []float64) (*Instance, error) {
	if err := validateMenu(bins, len(thresholds)); err != nil {
		return nil, err
	}
	th := make([]float64, len(thresholds))
	copy(th, thresholds)
	for i, t := range th {
		if !(t >= 0 && t < 1) {
			return nil, fmt.Errorf("core: threshold t[%d]=%v outside [0,1)", i, t)
		}
	}
	return &Instance{bins: bins, n: len(th), thresholds: th}, nil
}

// validateMenu checks the menu an instance of n tasks is built over.
func validateMenu(bins BinSet, n int) error {
	if err := bins.Validate(); err != nil {
		return err
	}
	if bins.Len() == 0 && n > 0 {
		return fmt.Errorf("core: empty bin menu for %d tasks", n)
	}
	return nil
}

// MustHomogeneous is NewHomogeneous that panics on error.
func MustHomogeneous(bins BinSet, n int, t float64) *Instance {
	in, err := NewHomogeneous(bins, n, t)
	if err != nil {
		panic(err)
	}
	return in
}

// MustHeterogeneous is NewHeterogeneous that panics on error.
func MustHeterogeneous(bins BinSet, thresholds []float64) *Instance {
	in, err := NewHeterogeneous(bins, thresholds)
	if err != nil {
		panic(err)
	}
	return in
}

// N returns the number of atomic tasks n = |T|.
func (in *Instance) N() int { return in.n }

// Bins returns the bin menu B.
func (in *Instance) Bins() BinSet { return in.bins }

// Threshold returns the reliability threshold t_i of task i.
func (in *Instance) Threshold(i int) float64 {
	if in.thresholds != nil {
		return in.thresholds[i]
	}
	in.checkIndex(i)
	return in.t
}

// Thresholds returns a copy of all task thresholds.
func (in *Instance) Thresholds() []float64 {
	out := make([]float64, in.n)
	if in.thresholds != nil {
		copy(out, in.thresholds)
		return out
	}
	for i := range out {
		out[i] = in.t
	}
	return out
}

// Theta returns the transformed demand θ_i = -ln(1 - t_i) of task i.
func (in *Instance) Theta(i int) float64 {
	if in.thresholds != nil {
		return Theta(in.thresholds[i])
	}
	in.checkIndex(i)
	return in.theta
}

// checkIndex panics on a task index outside [0, n), as indexing the
// heterogeneous form's slice would.
func (in *Instance) checkIndex(i int) {
	if i < 0 || i >= in.n {
		panic(fmt.Sprintf("core: task index %d out of range [0,%d)", i, in.n))
	}
}

// Homogeneous reports whether all task thresholds are equal (the
// homogeneous SLADE variant of Section 5).
func (in *Instance) Homogeneous() bool {
	for i := 1; i < len(in.thresholds); i++ {
		if in.thresholds[i] != in.thresholds[0] {
			return false
		}
	}
	return true
}

// MinThreshold returns the smallest task threshold, or 0 for an empty
// instance.
func (in *Instance) MinThreshold() float64 {
	if in.n == 0 {
		return 0
	}
	if in.thresholds == nil {
		return in.t
	}
	t := in.thresholds[0]
	for _, v := range in.thresholds[1:] {
		if v < t {
			t = v
		}
	}
	return t
}

// MaxThreshold returns the largest task threshold, or 0 for an empty
// instance.
func (in *Instance) MaxThreshold() float64 {
	if in.thresholds == nil {
		if in.n == 0 {
			return 0
		}
		return max(in.t, 0) // +0 for a threshold of -0, as the loop gives
	}
	t := 0.0
	for _, v := range in.thresholds {
		if v > t {
			t = v
		}
	}
	return t
}

// Relaxed reports whether the instance satisfies the polynomial-time relaxed
// variant of Section 4.2: every bin's confidence meets the largest task
// threshold, so a single assignment to any bin suffices for any task.
func (in *Instance) Relaxed() bool {
	return in.bins.MinConfidence() >= in.MaxThreshold()
}

// instanceJSON is the wire form of an Instance.
type instanceJSON struct {
	Bins       []TaskBin `json:"bins"`
	Thresholds []float64 `json:"thresholds"`
}

// MarshalJSON encodes the instance as {"bins": [...], "thresholds": [...]}.
func (in *Instance) MarshalJSON() ([]byte, error) {
	return json.Marshal(instanceJSON{Bins: in.bins.Bins(), Thresholds: in.Thresholds()})
}

// UnmarshalJSON decodes and validates the wire form.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var w instanceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	bs, err := NewBinSet(w.Bins)
	if err != nil {
		return err
	}
	dec, err := NewHeterogeneous(bs, w.Thresholds)
	if err != nil {
		return err
	}
	*in = *dec
	return nil
}
