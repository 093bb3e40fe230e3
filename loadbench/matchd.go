package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// matchd is one running matchd process.
type matchd struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	exited chan struct{}
	client *http.Client
}

// readyTimeout bounds one start, recovery included: ten times a slow
// start, and short enough that a hung start fails the run in time.
const readyTimeout = 60 * time.Second

// startMatchd execs matchd on dataDir and waits for GET /readyz to answer
// 200, returning the time from exec to that answer.
func startMatchd(bin, dataDir, logPath string, extra []string) (*matchd, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-k", strconv.Itoa(corpusK),
		"-seed", strconv.Itoa(corpusSeed), "-data-dir", dataDir}, extra...)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// matchd dies with this process even if it crashes before kill runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	m := &matchd{
		cmd: cmd, base: "http://" + addr, exited: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clientConns, MaxConnsPerHost: clientConns,
			DisableCompression: true,
		}},
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec matchd: %w", err)
	}
	go func() { _ = cmd.Wait(); close(m.exited) }()
	deadline := start.Add(readyTimeout)
	for {
		resp, err := m.client.Get(m.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return m, time.Since(start), nil
			}
		}
		select {
		case <-m.exited:
			return nil, 0, fmt.Errorf("matchd exited before ready (%s):\n%s", cmd.ProcessState, tail(logPath))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			m.kill()
			return nil, 0, fmt.Errorf("matchd not ready after %s:\n%s", readyTimeout, tail(logPath))
		}
	}
}

// kill sends SIGKILL and waits for the process to be gone. It is safe
// to call on a nil or already killed matchd.
func (m *matchd) kill() {
	if m == nil {
		return
	}
	_ = m.cmd.Process.Kill() // already exited is fine
	<-m.exited
	m.client.CloseIdleConnections()
}

// post sends one request body and returns the status and response body.
func (m *matchd) post(path string, body []byte) (int, []byte, error) {
	resp, err := m.client.Post(m.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches path and decodes a 200 answer into v.
func (m *matchd) getJSON(path string, v any) error {
	resp, err := m.client.Get(m.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// serverStats is the part of GET /stats the checks compare.
type serverStats struct {
	IndexedRecords int    `json:"indexed_records"`
	IndexKeys      int    `json:"index_keys"`
	IndexEntries   int    `json:"index_entries"`
	Plan           string `json:"plan"`
	Stream         struct {
		streamCounts
		Chase struct {
			PairsExamined int64 `json:"pairs_examined"`
		} `json:"chase"`
	} `json:"stream"`
	Store *struct {
		LSN         uint64 `json:"lsn"`
		SnapshotLSN uint64 `json:"snapshot_lsn"`
	} `json:"store"`
}

// streamCounts is the enforcement state that recovery must restore.
type streamCounts struct {
	Records      int `json:"records"`
	Clusters     int `json:"clusters"`
	Applications int `json:"applications"`
}

func (m *matchd) stats() (serverStats, error) {
	var st serverStats
	if err := m.getJSON("/stats", &st); err != nil {
		return st, err
	}
	if st.Store == nil {
		return st, errors.New("GET /stats: no store section (matchd not durable)")
	}
	return st, nil
}

// clusterView is GET /clusters/{id}.
type clusterView struct {
	Cluster int               `json:"cluster"`
	Size    int               `json:"size"`
	Members []int             `json:"members"`
	Record  map[string]string `json:"record"`
}

// peakRSSMiB reads the process's VmHWM.
func (m *matchd) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", m.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path) // best effort: the message is a diagnostic
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return filepath.Base(path) + ": " + strings.Join(lines, "\n")
}
