//! The one `key=value,key=value` grammar behind every `WATCHMEN_*` spec
//! variable (`WATCHMEN_FAULTS`, `WATCHMEN_STORE_FAULTS`, `WATCHMEN_FLEET`,
//! `WATCHMEN_CRASHLOOP`).
//! Entries are comma-separated, whitespace around them is ignored, empty
//! entries are skipped, and each must be `key=value`. Numbers parse as
//! the *target field's own type*, so an out-of-range value is an error
//! instead of a silently wrapped cast.

use std::str::FromStr;

/// Reads the spec variable `var` through `parse`; `None` when it is
/// unset or blank.
///
/// # Panics
///
/// Panics if the variable is set but does not parse — a misspelled knob
/// must fail loudly, not silently run the defaults.
pub fn from_env<T>(var: &str, parse: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
    let spec = std::env::var(var).ok()?;
    let spec = spec.trim();
    (!spec.is_empty()).then(|| parse(spec).unwrap_or_else(|e| panic!("{var}: {e}")))
}

/// [`from_env`] for a config with defaults: a bare `1`, `on` or `defaults`
/// selects `T::default()`.
pub fn from_env_or_default<T: Default>(
    var: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Option<T> {
    from_env(var, |spec| match spec {
        "1" | "on" | "defaults" => Ok(T::default()),
        _ => parse(spec),
    })
}

/// Splits a spec into its `(key, value)` entries.
///
/// # Errors
///
/// Each item is `Err` for an entry without an `=`.
pub fn pairs(spec: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    spec.split(',')
        .map(str::trim)
        .filter(|part| !part.is_empty())
        .map(|part| part.split_once('=').ok_or_else(|| format!("expected key=value, got {part:?}")))
}

/// Parses `value` as a `T`, naming `key` in the error.
///
/// # Errors
///
/// Returns a description when `value` is not a `T` — including when it
/// is a number outside `T`'s range.
pub fn num<T: FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad number {value:?} for {key}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_trim_skip_empties_and_reject_bare_words() {
        let got: Vec<_> = pairs(" a=1 ,, b=x=y ,").collect();
        assert_eq!(got, vec![Ok(("a", "1")), Ok(("b", "x=y"))]);
        assert!(pairs("a=1,nonsense").any(|p| p.is_err()));
        assert_eq!(pairs("").count(), 0);
    }

    #[test]
    fn num_parses_as_the_target_type() {
        assert_eq!(num::<u64>("k", "4294968296"), Ok(4_294_968_296));
        assert!(num::<u32>("k", "4294968296").is_err(), "must not wrap to 1000");
        assert!(num::<usize>("k", "-1").is_err());
        assert_eq!(num::<f64>("k", "0.25"), Ok(0.25));
        assert!(num::<u64>("k", "abc").unwrap_err().contains("for k"));
    }
}
