//! Scraping `oneqd`'s observability surfaces from client-side tools.
//!
//! `oneq-top` (the live cockpit) and `perfbench`'s `serve` workload both
//! read the daemon's `/v1/metrics` Prometheus text exposition and
//! `/v1/stats` JSON; this module holds the one parser each of those
//! formats gets. The histogram helpers understand the server's exact
//! rendering — nine-fractional-digit `le` boundaries, cumulative bucket
//! counts, and the OpenMetrics-style ` # {request_id="..."}` exemplar
//! suffix a bucket sample line may carry since `oneqd-stats/v6`.

use std::collections::BTreeMap;

/// Parses one exact-decimal `le` boundary (the server renders
/// `sec.nnnnnnnnn` with exactly nine fractional digits) back to
/// nanoseconds; `+Inf` maps to `u64::MAX`.
pub fn le_to_ns(le: &str) -> Option<u64> {
    if le == "+Inf" {
        return Some(u64::MAX);
    }
    let (secs, frac) = le.split_once('.')?;
    if frac.len() != 9 {
        return None;
    }
    let secs: u64 = secs.parse().ok()?;
    let frac: u64 = frac.parse().ok()?;
    secs.checked_mul(1_000_000_000)?.checked_add(frac)
}

/// Cumulative histogram buckets scraped from `/v1/metrics` for one
/// family, keyed by the value of `label_key` (e.g. `stage="mapping"`):
/// each series is `(le_ns, cumulative_count)` in ascending `le` order,
/// ending with the `+Inf` bucket at `u64::MAX`. Exemplar annotations
/// after the count are ignored.
pub fn parse_bucket_series(
    text: &str,
    family: &str,
    label_key: &str,
) -> BTreeMap<String, Vec<(u64, u64)>> {
    let mut series: BTreeMap<String, Vec<(u64, u64)>> = BTreeMap::new();
    let prefix = format!("{family}_bucket{{");
    for line in text.lines() {
        let Some(rest) = line.strip_prefix(&prefix) else {
            continue;
        };
        let Some((labels, value)) = rest.split_once("} ") else {
            continue;
        };
        // A sample line may end with ` # {request_id="..."} <v> <ts>`;
        // the count is everything before that marker.
        let value = value.split(" # ").next().unwrap_or(value);
        let mut key = None;
        let mut le = None;
        for pair in labels.split(',') {
            let Some((name, quoted)) = pair.split_once("=\"") else {
                continue;
            };
            let v = quoted.trim_end_matches('"');
            if name == label_key {
                key = Some(v.to_string());
            } else if name == "le" {
                le = le_to_ns(v);
            }
        }
        let (Some(key), Some(le), Ok(count)) = (key, le, value.trim().parse::<u64>()) else {
            continue;
        };
        series.entry(key).or_default().push((le, count));
    }
    series
}

/// Subtracts a start-of-window scrape from an end-of-window scrape,
/// bucket by bucket (a series absent from `before` simply started at
/// zero). The result is still cumulative, covering exactly the window.
pub fn diff_cumulative(before: Option<&[(u64, u64)]>, after: &[(u64, u64)]) -> Vec<(u64, u64)> {
    after
        .iter()
        .map(|&(le, cum)| {
            let base = before
                .and_then(|b| b.iter().find(|(ble, _)| *ble == le))
                .map_or(0, |&(_, c)| c);
            (le, cum.saturating_sub(base))
        })
        .collect()
}

/// Nearest-rank percentile over a cumulative bucket series (possibly
/// windowed through [`diff_cumulative`]). Returns the `le` upper bound
/// of the bucket holding the rank; when the rank only lands in `+Inf`,
/// the largest finite boundary is reported.
pub fn bucket_percentile(buckets: &[(u64, u64)], total: u64, p: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut last_finite = 0;
    for &(le, cum) in buckets {
        if le != u64::MAX {
            last_finite = le;
        }
        if cum >= rank {
            return if le == u64::MAX { last_finite } else { le };
        }
    }
    last_finite
}

/// Reads the first `"key": <digits>` occurrence out of a stats snapshot.
/// New `oneqd-stats` keys are only ever appended after existing ones, so
/// first-occurrence reads stay stable across schema versions.
pub fn stats_u64(stats: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\": ");
    stats
        .find(&pat)
        .map(|i| {
            stats[i + pat.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0)
}

/// Reads the first `"key": "value"` string occurrence out of a stats
/// snapshot. Good enough for the identifier-shaped values the cockpit
/// reads (request ids, routes, outcome labels — none contain escapes).
pub fn stats_str<'a>(stats: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": \"");
    let at = stats.find(&pat)? + pat.len();
    let end = stats[at..].find('"')?;
    Some(&stats[at..at + end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_boundaries_round_trip_to_nanoseconds() {
        assert_eq!(le_to_ns("0.000000100"), Some(100));
        assert_eq!(le_to_ns("2.000000001"), Some(2_000_000_001));
        assert_eq!(le_to_ns("+Inf"), Some(u64::MAX));
        assert_eq!(le_to_ns("0.5"), None, "short fractions are not ours");
        assert_eq!(le_to_ns("nope"), None);
    }

    #[test]
    fn bucket_parser_reads_plain_and_exemplar_annotated_lines() {
        let text = "\
# TYPE oneqd_compile_stage_seconds histogram\n\
oneqd_compile_stage_seconds_bucket{stage=\"mapping\",le=\"0.000001000\"} 3\n\
oneqd_compile_stage_seconds_bucket{stage=\"mapping\",le=\"0.000002000\"} 5 # {request_id=\"r-9\"} 0.000001500 1754000000.123\n\
oneqd_compile_stage_seconds_bucket{stage=\"mapping\",le=\"+Inf\"} 6\n\
oneqd_compile_stage_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 2\n";
        let series = parse_bucket_series(text, "oneqd_compile_stage_seconds", "stage");
        assert_eq!(
            series["mapping"],
            vec![(1_000, 3), (2_000, 5), (u64::MAX, 6)],
            "exemplar-annotated bucket line parsed like any other"
        );
        assert_eq!(series["parse"], vec![(u64::MAX, 2)]);
    }

    #[test]
    fn windowed_percentiles_come_from_the_diffed_series() {
        let before = vec![(1_000, 10), (2_000, 10), (u64::MAX, 10)];
        let after = vec![(1_000, 10), (2_000, 14), (u64::MAX, 14)];
        let diffed = diff_cumulative(Some(&before), &after);
        assert_eq!(diffed, vec![(1_000, 0), (2_000, 4), (u64::MAX, 4)]);
        let total = diffed.last().unwrap().1;
        assert_eq!(bucket_percentile(&diffed, total, 50.0), 2_000);
        assert_eq!(bucket_percentile(&diffed, total, 99.0), 2_000);
        assert_eq!(bucket_percentile(&[], 0, 50.0), 0);
    }

    #[test]
    fn stats_readers_take_the_first_occurrence() {
        let stats = "{\"schema\": \"oneqd-stats/v6\", \"requests\": 41, \
                     \"slowest\": [{\"request_id\": \"r-1\", \"total_ns\": 9}, \
                     {\"request_id\": \"r-2\", \"total_ns\": 3}]}";
        assert_eq!(stats_u64(stats, "requests"), 41);
        assert_eq!(stats_u64(stats, "total_ns"), 9);
        assert_eq!(stats_u64(stats, "absent"), 0);
        assert_eq!(stats_str(stats, "request_id"), Some("r-1"));
        assert_eq!(stats_str(stats, "schema"), Some("oneqd-stats/v6"));
        assert_eq!(stats_str(stats, "absent"), None);
    }
}
