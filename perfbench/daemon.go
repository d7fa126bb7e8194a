package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// journalName is the store-relative journal every plane in the benchmark
// runs with, as reprod's -journal flag conventionally names it.
const journalName = "wal/journal.log"

// daemonFlags are the reprod flags every daemon run uses; they go into
// the measurement record. The store directory and port file are appended
// per boot.
var daemonFlags = []string{"-addr", "127.0.0.1:0", "-journal", journalName}

// daemon is one running reprod process and an HTTP client for it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
	log    *os.File
}

// bootDaemon starts reprod over storeDir and returns once /healthz
// answers 200.
func bootDaemon(bin, storeDir, logPath string) (*daemon, error) {
	portfile := filepath.Join(filepath.Dir(logPath), "reprod.addr")
	_ = os.Remove(portfile) // a stale address must not be read back
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append(append([]string(nil), daemonFlags...), "-store", storeDir, "-portfile", portfile)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start reprod: %w", err)
	}
	d := &daemon{
		cmd:    cmd,
		exited: make(chan error, 1),
		log:    logf,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
	go func() { d.exited <- cmd.Wait() }()
	if err := d.awaitHealthy(portfile); err != nil {
		_ = d.kill() // the boot failure is the error to report
		d.log.Close()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitHealthy(portfile string) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.exited <- err
			return fmt.Errorf("reprod exited during boot: %v (see %s)", err, d.log.Name())
		default:
		}
		if d.base == "" {
			if raw, err := os.ReadFile(portfile); err == nil && bytes.HasSuffix(raw, []byte("\n")) {
				d.base = "http://" + strings.TrimSpace(string(raw))
			}
		}
		if d.base != "" {
			resp, err := d.client.Get(d.base + "/healthz")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("reprod did not become healthy within 30s")
}

// stop shuts the daemon down with SIGTERM (its graceful drain) and waits
// for the process to exit, killing it if the drain hangs.
func (d *daemon) stop() error {
	defer d.log.Close()
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return d.kill()
	}
	select {
	case err := <-d.exited:
		if err != nil {
			return fmt.Errorf("reprod exit: %w", err)
		}
		return nil
	case <-time.After(30 * time.Second):
		_ = d.kill()
		return errors.New("reprod did not drain within 30s")
	}
}

// kill ends the process without a drain and reaps it.
func (d *daemon) kill() error {
	_ = d.cmd.Process.Kill()
	err := <-d.exited
	d.exited <- err
	return err
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// call issues one request and decodes a JSON answer when out is non-nil.
// Any status other than 2xx is an error.
func (d *daemon) call(method, path string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// binding is the run registration body (POST /v1/runs).
type binding struct {
	RunID          string  `json:"runId"`
	CodeRef        string  `json:"codeRef,omitempty"`
	Epsilon        float64 `json:"epsilon"`
	ChunkSize      int     `json:"chunkSize,omitempty"`
	DatasetVersion string  `json:"datasetVersion,omitempty"`
}

func (d *daemon) register(tenant string, b binding) error {
	return d.call(http.MethodPost, "/v1/runs?tenant="+tenant, b, nil)
}

// jobStatus is the verdict snapshot reprod answers with.
type jobStatus struct {
	ID        uint64 `json:"id"`
	State     string `json:"state"`
	ExitCode  int    `json:"exitCode"`
	Error     string `json:"error"`
	DiffCount int64  `json:"diffCount"`
}

// run submits one job and long-polls its verdict, returning the verdict
// and the submit (POST to 202) and verdict (POST to verdict) latencies.
func (d *daemon) run(tenant string, j job) (outcome, error) {
	var o outcome
	start := time.Now()
	var st jobStatus
	if err := d.call(http.MethodPost, "/v1/jobs?tenant="+tenant, j, &st); err != nil {
		return o, err
	}
	o.submit = time.Since(start)
	for st.State != "done" {
		if err := d.call(http.MethodGet, fmt.Sprintf("/v1/jobs/%d/wait?timeoutMs=30000", st.ID), nil, &st); err != nil {
			return o, err
		}
		if time.Since(start) > 60*time.Second {
			return o, fmt.Errorf("job %d: no verdict after 60s", st.ID)
		}
	}
	o.verdict = time.Since(start)
	o.exit, o.diffCount = st.ExitCode, st.DiffCount
	if st.Error != "" {
		return o, fmt.Errorf("job %d failed: %s", st.ID, st.Error)
	}
	return o, nil
}
