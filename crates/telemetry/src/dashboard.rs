//! The live ops dashboard served at `/`: one self-contained HTML page
//! with inline CSS/JS and zero external assets (the workspace builds and
//! runs offline, so no CDN, no chart library). The page polls `/metrics`
//! and `/trace` once a second, parses the Prometheus text exposition in
//! ~20 lines of JS, and renders the operator's working set: windowed
//! fps / miss rate, tier occupancy, the pool's queue depth, per-client
//! latency quantiles, and the recent anomaly timelines the flight
//! recorder retained.

/// The dashboard page, embedded at compile time so the server binary
/// stays a single artifact.
pub const DASHBOARD_HTML: &str = r##"<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>Geosphere ops cockpit</title>
<style>
  body { font: 13px/1.5 ui-monospace, SFMono-Regular, Menlo, monospace;
         background: #10141a; color: #d6dde6; margin: 0; padding: 1rem 2rem; }
  h1 { font-size: 1.1rem; color: #7fd1b9; }
  h2 { font-size: .9rem; color: #8aa3b8; border-bottom: 1px solid #2a3442;
       padding-bottom: .2rem; margin-top: 1.4rem; }
  table { border-collapse: collapse; }
  td, th { padding: .15rem .7rem; text-align: right; }
  th { color: #8aa3b8; font-weight: normal; }
  td:first-child, th:first-child { text-align: left; }
  .cards { display: flex; flex-wrap: wrap; gap: .6rem; }
  .card { background: #1a212b; border: 1px solid #2a3442; border-radius: 6px;
          padding: .5rem .9rem; min-width: 9rem; }
  .card .v { font-size: 1.3rem; color: #e8f0f7; }
  .card .k { color: #8aa3b8; font-size: .75rem; }
  .bad .v { color: #ff7a7a; }
  .anom { background: #1a212b; border: 1px solid #3a2a2a; border-radius: 6px;
          padding: .5rem .9rem; margin-bottom: .6rem; }
  .anom .hdr { color: #ffb27a; }
  .tl { color: #9db4c8; white-space: pre; overflow-x: auto; }
  #err { color: #ff7a7a; }
</style>
</head>
<body>
<h1>Geosphere ops cockpit</h1>
<div id="err"></div>
<div class="cards" id="cards"></div>
<h2>Tier admissions</h2>
<table id="tiers"></table>
<h2>Submit&rarr;delivery latency (s)</h2>
<table id="lat"></table>
<h2>Recent anomalies</h2>
<div id="anoms">none yet</div>
<script>
"use strict";
// Prometheus text -> { name -> [{labels:{}, value}] }.
function parseProm(text) {
  const fams = {};
  for (const line of text.split("\n")) {
    if (!line || line[0] === "#") continue;
    const sp = line.lastIndexOf(" ");
    let key = line.slice(0, sp), value = parseFloat(line.slice(sp + 1));
    let name = key, labels = {};
    const br = key.indexOf("{");
    if (br >= 0) {
      name = key.slice(0, br);
      for (const kv of key.slice(br + 1, key.length - 1).split(",")) {
        const eq = kv.indexOf("=");
        if (eq > 0) labels[kv.slice(0, eq)] = kv.slice(eq + 2, kv.length - 1);
      }
    }
    (fams[name] = fams[name] || []).push({ labels, value });
  }
  return fams;
}
function one(fams, name) {
  const f = fams[name];
  return f && f.length ? f[0].value : NaN;
}
function fmt(v, d) { return isFinite(v) ? v.toFixed(d === undefined ? 1 : d) : "–"; }
function card(k, v, bad) {
  return `<div class="card${bad ? " bad" : ""}"><div class="v">${v}</div><div class="k">${k}</div></div>`;
}
function render(fams, trace) {
  const miss = one(fams, "gs_windowed_miss_rate");
  const tiers = ["zigzag", "hess", "sphere"];
  document.getElementById("cards").innerHTML =
    card("windowed fps", fmt(one(fams, "gs_windowed_frames_per_sec"))) +
    card("windowed miss rate", fmt(miss * 100, 2) + "%", miss > 0) +
    card("tier", tiers[one(fams, "gs_current_tier")] || fmt(one(fams, "gs_current_tier"), 0)) +
    card("occupancy", fmt(one(fams, "gs_occupancy") * 100) + "%") +
    card("in flight", fmt(one(fams, "gs_in_flight"), 0) + "/" + fmt(one(fams, "gs_capacity"), 0)) +
    card("queue depth", fmt(one(fams, "gs_queue_depth"), 0)) +
    card("completed", fmt(one(fams, "gs_frames_completed_total"), 0)) +
    card("deadline misses", fmt(one(fams, "gs_deadline_misses_total"), 0),
         one(fams, "gs_deadline_misses_total") > 0) +
    card("trace dumps", fmt(one(fams, "gs_trace_dumps"), 0)) +
    card("uptime", fmt(one(fams, "gs_uptime_seconds"), 0) + "s");
  const adm = fams["gs_tier_admissions_total"] || [];
  document.getElementById("tiers").innerHTML =
    "<tr><th>tier</th><th>admissions</th></tr>" +
    adm.map(s => `<tr><td>${s.labels.tier}</td><td>${s.value}</td></tr>`).join("");
  const lat = fams["gs_submit_delivery_latency_seconds"] || [];
  const byClient = {};
  for (const s of lat) (byClient[s.labels.client] = byClient[s.labels.client] || {})[s.labels.quantile] = s.value;
  document.getElementById("lat").innerHTML =
    "<tr><th>client</th><th>p50</th><th>p90</th><th>p99</th></tr>" +
    Object.keys(byClient).map(c => {
      const q = byClient[c];
      return `<tr><td>${c}</td><td>${fmt(q["0.5"], 4)}</td><td>${fmt(q["0.9"], 4)}</td><td>${fmt(q["0.99"], 4)}</td></tr>`;
    }).join("");
  const dumps = (trace && trace.dumps) || [];
  if (dumps.length) {
    document.getElementById("anoms").innerHTML = dumps.slice().reverse().map(d => {
      const focus = d.timelines.filter(t => t.frame === d.frame).concat(d.timelines).slice(0, 3);
      const lines = focus.map(t =>
        `  frame ${t.frame} (client ${t.client}): ` +
        t.spans.map(s => `${s.point}@${fmt(s.start_us, 0)}us+${fmt(s.dur_us, 0)}`).join(" ")
      ).join("\n");
      return `<div class="anom"><div class="hdr">#${d.seq} ${d.trigger} — frame ${d.frame}, ` +
             `${d.event_count} events, ${d.timelines.length} frame timelines</div>` +
             `<div class="tl">${lines}</div></div>`;
    }).join("");
  }
}
async function tick() {
  try {
    const [m, t] = await Promise.all([
      fetch("/metrics").then(r => r.text()),
      fetch("/trace").then(r => r.json()),
    ]);
    render(parseProm(m), t);
    document.getElementById("err").textContent = "";
  } catch (e) {
    document.getElementById("err").textContent = "poll failed: " + e;
  }
}
tick();
setInterval(tick, 1000);
</script>
</body>
</html>
"##;
