package main

import (
	"bufio"
	"bytes"
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

var httpClient = &http.Client{Timeout: 60 * time.Second}

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clkTck = 100

// daemon is a server process under test: greylistd itself, or the
// benchmark's traced assembly of the same layers.
type daemon struct {
	cmd       *exec.Cmd
	exited    chan struct{}
	smtpAddr  string
	adminAddr string
}

// freePort reserves a loopback port long enough to hand it to a child.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs argv with GOMAXPROCS=1, pinned to cpu unless that
// is empty, and returns once it answers both its SMTP banner and
// /healthz, with the seconds that took.
func startDaemon(argv []string, cpu, smtpAddr, adminAddr, logPath string) (*daemon, float64, error) {
	d := &daemon{smtpAddr: smtpAddr, adminAddr: adminAddr}
	if cpu != "" {
		argv = append([]string{"taskset", "-c", cpu}, argv...)
	}
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer log.Close()
	d.cmd = exec.Command(argv[0], argv[1:]...)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	d.cmd.Stdout, d.cmd.Stderr = log, log
	// The daemon dies with the driver, however the driver ends.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	exited := make(chan struct{})
	d.exited = exited
	go func() {
		d.cmd.Wait() //nolint:errcheck // a killed daemon exits non-zero by design
		close(exited)
	}()
	deadline := start.Add(150 * time.Second)
	ready := func() error {
		c, err := net.DialTimeout("tcp", smtpAddr, time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			return err
		}
		if !strings.HasPrefix(line, "220") {
			return fmt.Errorf("banner %q", line)
		}
		for {
			resp, err := httpClient.Get("http://" + adminAddr + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == 200 {
					return nil
				}
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("healthz never ready")
			}
			time.Sleep(time.Millisecond)
		}
	}
	for {
		select {
		case <-exited:
			return nil, 0, fmt.Errorf("%s exited during start-up (see %s)", filepath.Base(argv[len(argv)-1]), logPath)
		default:
		}
		err := ready()
		if err == nil {
			return d, time.Since(start).Seconds(), nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the daemon and waits for it to end.
func (d *daemon) stop() {
	if d == nil || d.cmd == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// cpuTicks reads a process's utime+stime in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields overall.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	s, _ := strconv.ParseInt(f[12], 10, 64)
	return u + s, nil
}

// statusKiB reads one kB-valued field (VmHWM, VmRSS) of /proc/<pid>/status.
func statusKiB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line[len(field)+1:])
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", field, pid)
}

// selfCPU is the driver's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// scrape fetches a Prometheus text exposition into series -> value.
func scrape(addr string) (map[string]float64, error) {
	resp, err := httpClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// timedGet fetches path and returns how long the full body took.
func timedGet(addr, path string) (time.Duration, error) {
	start := time.Now()
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		return 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return time.Since(start), err
}
