//! Correctness checks run on every op. Each returns `Err` with a
//! one-line diagnostic; a failed check fails the op it ran in.

use xgs_runtime::WireStats;

pub type Check = Result<(), String>;

/// A log-likelihood must be a finite number.
pub fn finite(what: &str, v: f64) -> Check {
    if v.is_finite() {
        Ok(())
    } else {
        Err(format!("{what}: non-finite value {v}"))
    }
}

/// `|l - reference| / |reference|`.
pub fn relerr(l: f64, reference: f64) -> f64 {
    (l - reference).abs() / reference.abs()
}

/// The relative error of `l` against the FP64 reference stays within the
/// variant's stated bound.
pub fn relerr_within(what: &str, l: f64, reference: f64, bound: f64) -> Check {
    let e = relerr(l, reference);
    if e <= bound {
        Ok(())
    } else {
        Err(format!(
            "{what}: relative error {e:e} exceeds bound {bound:e} ({l} vs {reference})"
        ))
    }
}

/// Two floats carry identical IEEE bits.
pub fn bitwise(what: &str, got: f64, want: f64) -> Check {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: {got:e} is not bitwise {want:e}"))
    }
}

/// Two float vectors carry identical IEEE bits element-wise.
pub fn bitwise_all(what: &str, got: &[f64], want: &[f64]) -> Check {
    if got.len() != want.len() {
        return Err(format!("{what}: length {} vs {}", got.len(), want.len()));
    }
    match got
        .iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("{what}: element {i} {:e} vs {:e}", got[i], want[i])),
    }
}

/// The measured bytes-on-wire census equals the projected one, row by
/// row (frame kind, frame count, bytes).
pub fn wire_census(what: &str, measured: &[WireStats], projected: &[WireStats]) -> Check {
    let mut m = measured.to_vec();
    let mut p = projected.to_vec();
    m.sort_by_key(|w| w.kind);
    p.sort_by_key(|w| w.kind);
    if m == p {
        Ok(())
    } else {
        Err(format!("{what}: wire census {m:?} != projection {p:?}"))
    }
}

/// The served responses hash to the same checksum as the in-process
/// queries over the same requests.
pub fn checksum(what: &str, served: u64, local: u64) -> Check {
    if served == local {
        Ok(())
    } else {
        Err(format!(
            "{what}: served {served:016x} vs in-process {local:016x}"
        ))
    }
}

/// An exact count.
pub fn count(what: &str, got: usize, want: usize) -> Check {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: {got} vs expected {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }

    #[test]
    fn finite_rejects_nan_and_infinity() {
        assert!(finite("l", -3953.0).is_ok());
        assert!(finite("l", f64::NAN).is_err());
        assert!(finite("l", f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn relerr_check_fails_past_its_bound() {
        let reference = -3953.000167790171;
        assert!(relerr_within("mp", reference, reference, 0.0).is_ok());
        let off = reference * (1.0 + 2e-9);
        assert!(relerr_within("mp", off, reference, 1e-8).is_ok());
        assert!(relerr_within("mp", off, reference, 1e-9).is_err());
        // Perturbing the expected value breaks a tight bound.
        assert!(relerr_within("mp", reference, reference * (1.0 + 1e-6), 1e-8).is_err());
    }

    #[test]
    fn bitwise_check_fails_on_one_ulp() {
        let v = 0.1234;
        assert!(bitwise("l", v, v).is_ok());
        assert!(bitwise("l", v, next_up(v)).is_err());
        assert!(bitwise_all("theta", &[1.0, v], &[1.0, v]).is_ok());
        assert!(bitwise_all("theta", &[1.0, v], &[1.0, next_up(v)]).is_err());
        assert!(bitwise_all("theta", &[1.0], &[1.0, v]).is_err());
    }

    #[test]
    fn wire_check_fails_on_any_row_change() {
        let rows = vec![
            WireStats {
                kind: "tile",
                frames: 40,
                bytes: 9000,
            },
            WireStats {
                kind: "task",
                frames: 20,
                bytes: 400,
            },
        ];
        let mut reordered = rows.clone();
        reordered.reverse();
        assert!(wire_census("w", &rows, &reordered).is_ok());
        let mut more_bytes = rows.clone();
        more_bytes[0].bytes += 1;
        assert!(wire_census("w", &rows, &more_bytes).is_err());
        let mut more_frames = rows.clone();
        more_frames[1].frames += 1;
        assert!(wire_census("w", &rows, &more_frames).is_err());
        assert!(wire_census("w", &rows, &rows[..1]).is_err());
    }

    #[test]
    fn checksum_and_count_checks_fail_when_perturbed() {
        assert!(checksum("serve", 0xabc, 0xabc).is_ok());
        assert!(checksum("serve", 0xabc, 0xabd).is_err());
        assert!(count("evals", 20, 20).is_ok());
        assert!(count("evals", 20, 21).is_err());
    }
}
