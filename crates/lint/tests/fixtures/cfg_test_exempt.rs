//! Test-code exemption fixture: the same hazards inside `#[cfg(test)]` and
//! `#[test]` items are test-code, not simulation code, and must not fire.
//! The test-gated `EventQueue::pop` is a declared hot entry point, so its
//! `unwrap` would be an R7 panic-reachability hit if test code were not
//! exempt.

fn shipping_code() -> u32 {
    42
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn asserts_freely() {
        let t = std::time::Instant::now();
        let mut m = HashMap::new();
        m.insert("k", rand::thread_rng().gen::<f64>());
        println!("{:?} {:?}", t.elapsed(), m.get("k").unwrap());
    }

    pub struct EventQueue;

    impl EventQueue {
        pub fn pop(&mut self, v: Option<u32>) -> u32 {
            v.unwrap()
        }
    }
}

#[test]
fn top_level_test_is_exempt_too() {
    let xs = vec![1.0f64, 2.0];
    let _ = xs[0].partial_cmp(&xs[1]).unwrap();
}
