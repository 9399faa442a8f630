package svc

// The status page: one HTML document rendered server-side from the same
// Status snapshot that feeds drain persistence (and the same atomics
// /metrics scrapes), refreshed by a plain <meta http-equiv=refresh> — no
// JavaScript, so it works from curl-only hosts' text browsers and keeps
// the service dependency-free.

import (
	"fmt"
	"html/template"
	"net/http"
	"time"
)

// pageView is the template's root.
type pageView struct {
	Now      time.Time
	Uptime   string
	Draining bool
	Status   Status
	Sweeps   []sweepRow
}

// sweepRow decorates one SweepStatus with precomputed rendering fields
// (html/template stays logic-free).
type sweepRow struct {
	SweepStatus
	Percent  int    // progress bar width
	Cells    string // "done/total" or "-"
	Duration string // run time so far (or final)
}

func (s *Service) pageView() pageView {
	st := s.Status()
	now := time.Now()
	v := pageView{
		Now:      now,
		Uptime:   now.Sub(s.started).Truncate(time.Second).String(),
		Draining: st.Dist.Draining,
		Status:   st,
	}
	for _, sw := range st.Sweeps {
		row := sweepRow{SweepStatus: sw, Cells: "-", Duration: "-"}
		if sw.Total > 0 {
			row.Percent = 100 * sw.Done / sw.Total
			row.Cells = fmt.Sprintf("%d/%d", sw.Done, sw.Total)
		} else if sw.State == Done {
			row.Percent = 100
		}
		switch {
		case !sw.Finished.IsZero() && !sw.Started.IsZero():
			row.Duration = sw.Finished.Sub(sw.Started).Truncate(time.Second).String()
		case !sw.Started.IsZero():
			row.Duration = now.Sub(sw.Started).Truncate(time.Second).String()
		}
		v.Sweeps = append(v.Sweeps, row)
	}
	return v
}

var pageTmpl = template.Must(template.New("status").Parse(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="refresh" content="2">
<title>bashsim sweep service</title>
<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.5em; }
table { border-collapse: collapse; }
th, td { text-align: left; padding: 0.25em 0.9em 0.25em 0; font-variant-numeric: tabular-nums; }
th { border-bottom: 1px solid #999; }
.bar { background: #eee; width: 12em; height: 0.8em; display: inline-block; vertical-align: middle; }
.bar span { background: #4a8; height: 100%; display: block; }
.state-running { color: #261; } .state-failed { color: #a22; }
.state-canceled, .state-queued { color: #777; }
.drain { background: #fc6; padding: 0.4em 0.8em; display: inline-block; }
.muted { color: #777; }
</style>
</head>
<body>
<h1>bashsim sweep service</h1>
<p class="muted">up {{.Uptime}} · {{.Status.Dist.Workers}} worker(s) ·
rendered {{.Now.Format "15:04:05"}} (auto-refreshes)</p>
{{if .Draining}}<p class="drain">draining: no new grants, waiting for leased batches</p>{{end}}

<h2>Sweeps</h2>
{{if .Sweeps}}<table>
<tr><th>id</th><th>exp</th><th>scale</th><th>prio</th><th>state</th><th>progress</th><th>cells</th><th>time</th><th></th></tr>
{{range .Sweeps}}<tr>
<td>{{.ID}}</td><td>{{.Exp}}</td><td>{{.Scale}}</td><td>{{.Priority}}</td>
<td class="state-{{.State}}">{{.State}}</td>
<td><span class="bar"><span style="width: {{.Percent}}%"></span></span></td>
<td>{{.Cells}}</td><td>{{.Duration}}</td>
<td>{{if eq .State "done"}}<a href="/sweeps/{{.ID}}/result.tsv">result.tsv</a>{{else if .Err}}{{.Err}}{{end}}</td>
</tr>{{end}}
</table>{{else}}<p class="muted">none submitted — try: bashsim -submit http://this-host -exp fig1</p>{{end}}

<h2>Fleet</h2>
<table>
<tr><th>leases</th><th>refills</th><th>dispatched</th><th>completed</th><th>failed</th><th>reassigned</th><th>bytes in/out</th></tr>
<tr><td>{{.Status.Dist.Leases}}</td><td>{{.Status.Dist.Refills}}</td><td>{{.Status.Dist.Dispatched}}</td>
<td>{{.Status.Dist.Completed}}</td><td>{{.Status.Dist.Failed}}</td><td>{{.Status.Dist.Reassigned}}</td>
<td>{{.Status.Dist.BytesIn}} / {{.Status.Dist.BytesOut}}</td></tr>
</table>

<h2>Peer cell exchange</h2>
<p class="muted">A cell is fetched direct from a peer, else from the coordinator's store, else simulated.</p>
<table>
<tr><th>adverts</th><th>advert bytes</th><th>direct fetches</th><th>coordinator fetches</th><th>served from its store</th><th>false positives</th></tr>
<tr><td>{{.Status.Dist.Adverts}}</td><td>{{.Status.Dist.AdvertBytes}}</td><td>{{.Status.Dist.FetchDirect}}</td>
<td>{{.Status.Dist.Fetches}}</td><td>{{.Status.Dist.FetchServed}}</td><td>{{.Status.Dist.FetchFalsePos}}</td></tr>
</table>

{{if .Status.Dist.WireConns}}<h2>Wire connections</h2>
<table>
<tr><th>worker</th><th>remote</th><th>frames in/out</th><th>bytes in/out</th><th></th></tr>
{{range .Status.Dist.WireConns}}<tr{{if .Closed}} class="muted"{{end}}>
<td>{{.Worker}}</td><td>{{.Remote}}</td>
<td>{{.FramesIn}} / {{.FramesOut}}</td><td>{{.BytesIn}} / {{.BytesOut}}</td>
<td>{{if .Closed}}closed{{end}}</td>
</tr>{{end}}
</table>{{end}}

<p class="muted"><a href="/metrics">/metrics</a> · <a href="/sweeps">/sweeps</a></p>
</body>
</html>
`))

// handlePage serves GET /: the live status page.
func (s *Service) handlePage(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageTmpl.Execute(w, s.pageView()); err != nil {
		// Headers are gone; all we can do is log.
		s.logf("svc: status page: %v", err)
	}
}
