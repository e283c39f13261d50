//! Prometheus text-format parsing for `/metrics` scrapes.

/// One sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample<'a> {
    /// The series name.
    pub name: &'a str,
    /// The raw label set between the braces (empty when there is none).
    pub labels: &'a str,
    /// The sample value (`+Inf`, `-Inf` and `NaN` parse as such).
    pub value: f64,
}

/// Parses one exposition line. `None` for comments (`# HELP`, `# TYPE`),
/// blank lines, and anything malformed. A trailing timestamp is ignored.
pub fn parse_line(line: &str) -> Option<Sample<'_>> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (name, labels, rest) = match line.find('{') {
        Some(open) => {
            let close = open + line[open..].find('}')?;
            (&line[..open], &line[open + 1..close], &line[close + 1..])
        }
        None => {
            let end = line.find(char::is_whitespace)?;
            (&line[..end], "", &line[end..])
        }
    };
    if name.is_empty() || name.contains(char::is_whitespace) {
        return None;
    }
    let value = match rest.split_whitespace().next()? {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v.parse().ok()?,
    };
    Some(Sample {
        name,
        labels,
        value,
    })
}

/// The value of the first unlabelled sample called `name` in a scrape.
pub fn value(scrape: &str, name: &str) -> Option<f64> {
    scrape
        .lines()
        .filter_map(parse_line)
        .find(|s| s.name == name && s.labels.is_empty())
        .map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "\
# HELP copart_ticks_total Epoch-timer ticks observed by the daemon
# TYPE copart_ticks_total counter
copart_ticks_total 44
# TYPE copart_unfairness gauge
copart_unfairness 0.053348736454312345

copart_tick_lag_ns_bucket{le=\"65536\"} 1
copart_tick_lag_ns_bucket{le=\"+Inf\"} 44
copart_tick_lag_ns_sum 10094312
copart_tick_lag_ns_count 44 1700000000000
";

    #[test]
    fn parses_plain_labelled_and_timestamped_lines() {
        assert_eq!(
            parse_line("copart_ticks_total 44"),
            Some(Sample {
                name: "copart_ticks_total",
                labels: "",
                value: 44.0
            })
        );
        assert_eq!(
            parse_line("copart_tick_lag_ns_bucket{le=\"+Inf\"} 44"),
            Some(Sample {
                name: "copart_tick_lag_ns_bucket",
                labels: "le=\"+Inf\"",
                value: 44.0
            })
        );
        assert_eq!(
            parse_line("x_count 44 1700000000000").map(|s| s.value),
            Some(44.0)
        );
        assert_eq!(parse_line("up +Inf").map(|s| s.value), Some(f64::INFINITY));
    }

    #[test]
    fn skips_comments_blanks_and_garbage() {
        for line in [
            "",
            "   ",
            "# HELP x y",
            "# TYPE x counter",
            "novalue",
            "x{le=\"1\" 3",
            "x notanumber",
            "{a=\"b\"} 1",
        ] {
            assert_eq!(parse_line(line), None, "{line:?}");
        }
    }

    #[test]
    fn looks_values_up_by_exact_unlabelled_name() {
        assert_eq!(value(SCRAPE, "copart_ticks_total"), Some(44.0));
        assert_eq!(value(SCRAPE, "copart_tick_lag_ns_sum"), Some(10094312.0));
        assert_eq!(value(SCRAPE, "copart_tick_lag_ns_count"), Some(44.0));
        // A prefix of a longer name, or a labelled-only series, is absent.
        assert_eq!(value(SCRAPE, "copart_ticks"), None);
        assert_eq!(value(SCRAPE, "copart_tick_lag_ns_bucket"), None);
    }
}
