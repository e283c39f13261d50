//! Minimal `--key value` option parsing (no external dependencies).

use std::collections::{BTreeMap, BTreeSet};

/// Parsed `--key value` pairs plus value-less boolean flags.
#[derive(Debug, Default)]
pub struct Options {
    values: BTreeMap<String, String>,
    flags: BTreeSet<String>,
}

impl Options {
    /// Parses an argument list where every name in `boolean` is a
    /// value-less flag (`--metrics`) and everything else is a
    /// `--key value` pair.
    pub fn parse_with_flags(args: &[String], boolean: &[&str]) -> Result<Options, String> {
        let mut values = BTreeMap::new();
        let mut flags = BTreeSet::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected an option, found {key:?}"));
            };
            if boolean.contains(&name) {
                if !flags.insert(name.to_string()) {
                    return Err(format!("flag --{name} given twice"));
                }
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("option --{name} needs a value"));
            };
            if values.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("option --{name} given twice"));
            }
        }
        Ok(Options { values, flags })
    }

    /// Fails on an option `cmd` does not take (`accepted` lists the
    /// ones it does, whitespace-separated), naming it.
    pub fn only(&self, cmd: &str, accepted: &str) -> Result<(), String> {
        match self
            .values
            .keys()
            .chain(&self.flags)
            .find(|name| !accepted.split_whitespace().any(|a| a == name.as_str()))
        {
            Some(name) => Err(format!("{cmd} does not take --{name}")),
            None => Ok(()),
        }
    }

    /// The raw value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Whether the boolean flag `--name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The value of a required option.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// A parsed numeric option with a default.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{name}: cannot parse {v:?}")),
        }
    }

    /// Applies `--jobs <n>` (a positive worker count for the parallel
    /// sweeps) to the process-wide pool setting, when given.
    pub fn apply_jobs(&self) -> Result<(), String> {
        let Some(jobs) = self.get("jobs") else {
            return Ok(());
        };
        match jobs.parse::<usize>() {
            Ok(n) if n > 0 => {
                copart_parallel::set_jobs(Some(n));
                Ok(())
            }
            _ => Err(format!("option --jobs: cannot parse {jobs:?}")),
        }
    }
}

/// `--seconds` of virtual time as a count of controller periods (the
/// 200 ms `CoPartParams::period`), rounded up. Rejects NaN, infinities,
/// non-positive values and runs of more than `u32::MAX` periods: the
/// run preallocates its timeline from this count.
pub fn seconds_to_periods(seconds: f64) -> Result<u32, String> {
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!(
            "--seconds must be a positive, finite number (got {seconds})"
        ));
    }
    let period_s = copart_core::CoPartParams::default().period.as_secs_f64();
    let periods = (seconds / period_s).ceil();
    if periods > f64::from(u32::MAX) {
        return Err(format!(
            "--seconds {seconds} is too long: {periods:.0} periods of {period_s} s, at most {}",
            u32::MAX
        ));
    }
    Ok(periods as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_become_whole_periods_or_an_error() {
        assert_eq!(seconds_to_periods(30.0), Ok(150));
        assert_eq!(seconds_to_periods(0.6), Ok(3));
        assert_eq!(seconds_to_periods(0.01), Ok(1));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e12] {
            assert!(seconds_to_periods(bad).is_err(), "{bad} accepted");
        }
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Flag-free parse, the common case in these tests.
    fn parse(args: &[String]) -> Result<Options, String> {
        Options::parse_with_flags(args, &[])
    }

    #[test]
    fn parses_pairs() {
        let o = parse(&sv(&["--mix", "h-llc", "--apps", "5"])).unwrap();
        assert_eq!(o.get("mix"), Some("h-llc"));
        assert_eq!(o.number::<u32>("apps", 4).unwrap(), 5);
        assert_eq!(o.number::<u32>("seconds", 30).unwrap(), 30);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse(&sv(&["mix"])).is_err());
        assert!(parse(&sv(&["--mix"])).is_err());
        assert!(parse(&sv(&["--a", "1", "--a", "2"])).is_err());
    }

    #[test]
    fn required_and_bad_numbers() {
        let o = parse(&sv(&["--apps", "many"])).unwrap();
        assert!(o.required("root").is_err());
        assert!(o.number::<u32>("apps", 4).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let o =
            Options::parse_with_flags(&sv(&["--metrics", "--mix", "h-llc"]), &["metrics"]).unwrap();
        assert!(o.flag("metrics"));
        assert!(!o.flag("absent"));
        assert_eq!(o.get("mix"), Some("h-llc"));
        // A flag is not a value option and vice versa.
        assert_eq!(o.get("metrics"), None);
        assert!(Options::parse_with_flags(&sv(&["--metrics", "--metrics"]), &["metrics"]).is_err());
        // Without the declaration, the old strict behavior holds.
        assert!(parse(&sv(&["--metrics"])).is_err());
    }
}
