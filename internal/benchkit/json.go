package benchkit

import (
	"encoding/json"
	"io"
	"runtime"
)

// Check is one acceptance verdict of an experiment: the claim and whether
// the measured rows bear it out.
type Check struct {
	OK   bool   `json:"ok"`
	What string `json:"what"`
}

// String renders the verdict as every experiment prints it.
func (c Check) String() string {
	if c.OK {
		return "PASS  " + c.What
	}
	return "FAIL  " + c.What
}

// Env is the machine and toolchain an artifact was measured with.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// BenchDoc is the envelope of one machine-readable benchmark artifact
// (BENCH_<experiment>.json): the experiment name, the machine it ran on, the
// configuration it ran under, its measured rows, and its acceptance checks.
type BenchDoc struct {
	Experiment string  `json:"experiment"`
	Env        Env     `json:"env"`
	Config     any     `json:"config,omitempty"`
	Rows       any     `json:"rows"`
	Checks     []Check `json:"checks,omitempty"`
}

// WriteBenchJSON writes the artifact as indented JSON, with Env filled in
// from the running process.
func WriteBenchJSON(w io.Writer, doc BenchDoc) error {
	doc.Env = Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
