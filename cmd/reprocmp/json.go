package main

import (
	"encoding/json"
	"io"

	"repro"
)

// jsonResult is the machine-readable form of a comparison, for CI
// integration (the paper's §5 use case).
type jsonResult struct {
	Method          string          `json:"method"`
	Identical       bool            `json:"identical"`
	DiffCount       int64           `json:"diffCount"`
	TotalElements   int64           `json:"totalElements"`
	CandidateChunks int             `json:"candidateChunks"`
	ChangedChunks   int             `json:"changedChunks"`
	TotalChunks     int             `json:"totalChunks"`
	FalsePositives  int             `json:"falsePositiveChunks"`
	CheckpointBytes int64           `json:"checkpointBytes"`
	BytesRead       int64           `json:"bytesRead"`
	MetadataBytes   int64           `json:"metadataBytes"`
	WallMicros      int64           `json:"wallMicros"`
	VirtualMicros   int64           `json:"virtualMicros"`
	ModelGBps       float64         `json:"modelGBps"`
	Degraded        bool            `json:"degraded,omitempty"`
	Unverified      int             `json:"unverifiedChunks,omitempty"`
	ReadRetries     int             `json:"readRetries,omitempty"`
	RingFallbacks   int             `json:"ringFallbacks,omitempty"`
	Fields          []jsonFieldDiff `json:"fields,omitempty"`
}

type jsonFieldDiff struct {
	Field   string  `json:"field"`
	Count   int     `json:"count"`
	First   int64   `json:"first"`
	Last    int64   `json:"last"`
	Indices []int64 `json:"indices,omitempty"`
}

// jsonHistory is the machine-readable form of a history comparison.
type jsonHistory struct {
	RunA            string     `json:"runA"`
	RunB            string     `json:"runB"`
	Method          string     `json:"method"`
	Epsilon         float64    `json:"epsilon"`
	Reproducible    bool       `json:"reproducible"`
	Degraded        bool       `json:"degraded,omitempty"`
	FirstDivergence *jsonPair  `json:"firstDivergence,omitempty"`
	Pairs           []jsonPair `json:"pairs"`
}

type jsonPair struct {
	Iteration int   `json:"iteration"`
	Rank      int   `json:"rank"`
	DiffCount int64 `json:"diffCount"`
	Degraded  bool  `json:"degraded,omitempty"`
}

func toJSONResult(res *repro.Result, verbose bool) jsonResult {
	out := jsonResult{
		Method:          res.Method,
		Identical:       res.Identical(),
		DiffCount:       res.DiffCount,
		TotalElements:   res.TotalElements,
		CandidateChunks: res.CandidateChunks,
		ChangedChunks:   res.ChangedChunks,
		TotalChunks:     res.TotalChunks,
		FalsePositives:  res.FalsePositiveChunks(),
		CheckpointBytes: res.CheckpointBytes,
		BytesRead:       res.BytesRead,
		MetadataBytes:   res.MetadataBytes,
		WallMicros:      res.WallElapsed().Microseconds(),
		VirtualMicros:   res.VirtualElapsed().Microseconds(),
		ModelGBps:       res.ThroughputGBps(),
		Degraded:        res.Outcome().Degraded,
		Unverified:      res.UnverifiedChunks,
		ReadRetries:     res.ReadRetries,
		RingFallbacks:   res.RingFallbacks,
	}
	for _, d := range res.Diffs {
		fd := jsonFieldDiff{
			Field: d.Field,
			Count: len(d.Indices),
			First: d.Indices[0],
			Last:  d.Indices[len(d.Indices)-1],
		}
		if verbose {
			fd.Indices = d.Indices
		}
		out.Fields = append(out.Fields, fd)
	}
	return out
}

func toJSONHistory(report *repro.HistoryReport, method repro.Method, eps float64) jsonHistory {
	out := jsonHistory{
		RunA:         report.RunA,
		RunB:         report.RunB,
		Method:       method.String(),
		Epsilon:      eps,
		Reproducible: report.Reproducible(),
		Degraded:     report.Degraded(),
	}
	for _, p := range report.Pairs {
		out.Pairs = append(out.Pairs, jsonPair{
			Iteration: p.Iteration,
			Rank:      p.Rank,
			DiffCount: p.Result.DiffCount,
			Degraded:  p.Result.Outcome().Degraded,
		})
	}
	if fd := report.FirstDivergence; fd != nil {
		out.FirstDivergence = &jsonPair{
			Iteration: fd.Iteration,
			Rank:      fd.Rank,
			DiffCount: fd.Result.DiffCount,
		}
	}
	return out
}

func emitJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
