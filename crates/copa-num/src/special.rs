//! Special functions and dB conversions used by the PHY error models.

/// Complementary error function, `erfc(x) = 2/sqrt(pi) * int_x^inf e^{-t^2} dt`.
///
/// Rational Chebyshev approximation (Numerical Recipes `erfcc`): fractional
/// error below `1.2e-7` for all `x`, which comfortably covers bit error rates
/// down to the `1e-12` regime the 802.11n MCS tables care about.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Gaussian tail probability `Q(x) = P[N(0,1) > x] = erfc(x / sqrt(2)) / 2`.
///
/// The fundamental building block of uncoded BER formulas.
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Converts a power ratio to decibels. `lin <= 0` maps to `-inf`.
pub fn lin_to_db(lin: f64) -> f64 {
    if lin <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * lin.log10()
    }
}

/// Converts decibels to a linear power ratio.
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    lin_to_db(mw)
}

/// Converts dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    db_to_lin(dbm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_reference_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 1.0),
            (0.5, 0.4795001222),
            (1.0, 0.1572992070),
            (2.0, 0.0046777349),
            (3.0, 2.209049699e-5),
            (4.0, 1.541725790e-8),
        ];
        for (x, expect) in cases {
            let got = erfc(x);
            assert!(
                ((got - expect) / expect).abs() < 1e-6,
                "erfc({x}) = {got}, want {expect}"
            );
        }
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.7, 1.5, 3.0] {
            assert!((erfc(-x) - (2.0 - erfc(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn q_function_properties() {
        // The erfc approximation has ~1e-7 fractional error, so Q(0) is 0.5
        // only to that accuracy.
        assert!((q_func(0.0) - 0.5).abs() < 1e-6);
        // Monotone decreasing.
        let mut prev = q_func(-5.0);
        for i in -49..=50 {
            let q = q_func(i as f64 / 10.0);
            assert!(q < prev);
            prev = q;
        }
        // Q(1.0) reference.
        assert!((q_func(1.0) - 0.15865525).abs() < 1e-6);
        // Tail: Q(6) ~ 9.87e-10.
        assert!((q_func(6.0) / 9.8659e-10 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn db_round_trips() {
        for &db in &[-100.0, -30.0, 0.0, 3.0, 20.0] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-9);
        }
        assert_eq!(lin_to_db(0.0), f64::NEG_INFINITY);
        assert!((db_to_lin(3.0) - 1.9952623).abs() < 1e-6);
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((mw_to_dbm(100.0) - 20.0).abs() < 1e-12);
    }
}
