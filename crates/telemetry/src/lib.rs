//! Operations cockpit for the Geosphere streaming runtime: a Prometheus
//! text-format `/metrics` endpoint over [`gs_runtime::RuntimeStats`].
//!
//! The paper's base-station framing makes the runtime an *operated*
//! system, and operated systems get scraped: this crate turns the
//! snapshot the control plane already consumes into the exposition a
//! dashboard consumes, without adding a single dependency — the server is
//! std [`std::net::TcpListener`] plus a hand-rolled slice of HTTP/1.1
//! (the workspace builds offline, so `hyper`/`prometheus` were never on
//! the table).
//!
//! Three layers, deliberately separable:
//!
//! - [`render_runtime_stats`] — pure snapshot → text rendering: lifetime
//!   counters, the corrected windowed rates, tier admissions, the pool's
//!   queue depth, and quantile summaries (p50/p90/p99 with `_sum`,
//!   `_count`, and an exact `_max` gauge) over the zero-allocation log-bucketed
//!   histograms ([`gs_prof::hist`]) the hot path records into. Built with
//!   `--features profile`, the per-stage cycle table rides along as
//!   `gs_stage_*_total{stage=...}`.
//! - [`MetricsServer`] — one accept thread serving `GET /metrics`, the
//!   live dashboard at `/` ([`DASHBOARD_HTML`]), the flight-recorder
//!   dump JSON at `/trace` ([`render_trace_dumps`]), and the newest
//!   dump's Chrome trace-event export at `/trace/latest`; port-0
//!   friendly, joined on drop. [`scrape`] is the matching client, with
//!   an overall response deadline ([`scrape_deadline`]).
//! - [`parse_exposition`] / [`lint_exposition`] /
//!   [`assert_counters_monotone`] — the read side: a small parser the e2e
//!   tests use to compare scraped values against [`gs_runtime::RuntimeStats`]
//!   exactly,
//!   and the lint CI runs against the live endpoint (declared `# TYPE`
//!   per family, unique well-formed names, no NaN, counters monotone
//!   across scrapes).
//!
//! Recording stays allocation-free on the frame path (pinned by
//! `tests/alloc_regression.rs`); rendering allocates freely but only on
//! scrape.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dashboard;
mod expo;
mod render;
mod server;

pub use dashboard::DASHBOARD_HTML;
pub use expo::{assert_counters_monotone, lint_exposition, parse_exposition, Exposition, Sample};
pub use render::{render_runtime_stats, render_trace_dumps, MAX_CLIENT_LANES, QUANTILES};
pub use server::{scrape, scrape_deadline, MetricsServer};

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_err(text: &str) -> String {
        lint_exposition(text).expect_err("lint should fail")
    }

    #[test]
    fn parses_names_labels_and_values() {
        let expo = parse_exposition(
            "# HELP x ignored\n# TYPE gs_x_total counter\ngs_x_total 3\n\
             # TYPE gs_lat summary\ngs_lat{client=\"0\",quantile=\"0.5\"} 0.25\n\
             gs_lat_sum{client=\"0\"} 9.5\ngs_lat_count{client=\"0\"} 12\n",
        )
        .unwrap();
        assert_eq!(expo.types["gs_x_total"], "counter");
        assert_eq!(expo.value("gs_x_total", &[]), Some(3.0));
        assert_eq!(expo.value("gs_lat", &[("client", "0"), ("quantile", "0.5")]), Some(0.25));
        assert_eq!(expo.value("gs_lat_count", &[("client", "0")]), Some(12.0));
        assert_eq!(expo.value("gs_lat", &[("client", "1")]), None);
    }

    #[test]
    fn lint_rejects_malformed_expositions() {
        assert!(lint_err("gs_x 1\n").contains("no # TYPE"));
        assert!(lint_err("# TYPE gs_x gauge\n# TYPE gs_x counter\ngs_x 1\n").contains("duplicate"));
        assert!(lint_err("# TYPE gs_x gauge\ngs_x 1\ngs_x 2\n").contains("duplicate series"));
        assert!(lint_err("# TYPE gs_x counter\ngs_x -1\n").contains("negative"));
        assert!(lint_err("# TYPE gs_x gauge\ngs_x NaN\n").contains("NaN"));
        assert!(lint_err("# TYPE 9bad gauge\n").contains("invalid"));
        assert!(parse_exposition("# TYPE gs_x gauge\ngs_x notanumber\n").is_err());
        assert!(parse_exposition("# TYPE gs_x gauge\ngs_x{open=\"1\" 2\n").is_err());
    }

    #[test]
    fn monotone_check_catches_regressing_counter() {
        let a = lint_exposition("# TYPE gs_x_total counter\ngs_x_total 5\n").unwrap();
        let b = lint_exposition("# TYPE gs_x_total counter\ngs_x_total 7\n").unwrap();
        assert_eq!(assert_counters_monotone(&a, &b), Ok(1));
        assert!(assert_counters_monotone(&b, &a).unwrap_err().contains("went backwards"));
    }
}
