//! End-to-end: MayaJava source → mayac pipeline → interpreted output.

use maya_core::Compiler;

fn run(src: &str) -> String {
    let c = Compiler::new();
    match c.compile_and_run("Main.maya", src, "Main") {
        Ok(out) => out,
        Err(e) => panic!("compile/run failed: {} @ {:?}", e.message, e.span),
    }
}

#[test]
fn hello_world() {
    let out = run(r#"
        class Main {
            static void main() {
                System.out.println("hello, maya");
            }
        }
    "#);
    assert_eq!(out, "hello, maya\n");
}

#[test]
fn arithmetic_and_locals() {
    let out = run(r#"
        class Main {
            static void main() {
                int a = 6;
                int b = 7;
                int c = a * b + 1 - 1;
                System.out.println(c);
                System.out.println(a < b);
                System.out.println((a + b) * 2);
            }
        }
    "#);
    assert_eq!(out, "42\ntrue\n26\n");
}

#[test]
fn control_flow() {
    let out = run(r#"
        class Main {
            static int fib(int n) {
                if (n < 2) return n;
                return fib(n - 1) + fib(n - 2);
            }
            static void main() {
                for (int i = 0; i < 8; i++) {
                    System.out.print(fib(i));
                    System.out.print(" ");
                }
                System.out.println("");
                int i = 0;
                while (i < 3) { i++; }
                System.out.println(i);
                do { i--; } while (i > 1);
                System.out.println(i);
            }
        }
    "#);
    assert_eq!(out, "0 1 1 2 3 5 8 13 \n3\n1\n");
}

#[test]
fn objects_fields_and_methods() {
    let out = run(r#"
        class Point {
            int x;
            int y;
            Point(int x0, int y0) {
                x = x0;
                y = y0;
            }
            int dist2() { return x * x + y * y; }
            String toString() { return "(" + x + ", " + y + ")"; }
        }
        class Main {
            static void main() {
                Point p = new Point(3, 4);
                System.out.println(p.dist2());
                System.out.println(p);
                p.x = 6;
                System.out.println(p.dist2());
            }
        }
    "#);
    assert_eq!(out, "25\n(3, 4)\n52\n");
}

#[test]
fn inheritance_virtual_dispatch_and_instanceof() {
    let out = run(r#"
        class Shape {
            int area() { return 0; }
            String name() { return "shape"; }
        }
        class Square extends Shape {
            int side;
            Square(int s) { side = s; }
            int area() { return side * side; }
            String name() { return "square"; }
        }
        class Main {
            static void main() {
                Shape s = new Square(5);
                System.out.println(s.area());
                System.out.println(s.name());
                System.out.println(s instanceof Square);
                Shape t = new Shape();
                System.out.println(t instanceof Square);
                Square q = (Square) s;
                System.out.println(q.side);
            }
        }
    "#);
    assert_eq!(out, "25\nsquare\ntrue\nfalse\n5\n");
}

#[test]
fn vectors_hashtables_enumerations() {
    let out = run(r#"
        import java.util.*;
        class Main {
            static void main() {
                Hashtable h = new Hashtable();
                h.put("one", "1");
                h.put("two", "2");
                Enumeration e = h.keys();
                while (e.hasMoreElements()) {
                    String st = (String) e.nextElement();
                    System.out.println(st + " = " + h.get(st));
                }
                Vector v = new Vector();
                v.addElement("a");
                v.addElement("b");
                System.out.println(v.size());
            }
        }
    "#);
    assert_eq!(out, "one = 1\ntwo = 2\n2\n");
}

#[test]
fn arrays_and_strings() {
    let out = run(r#"
        class Main {
            static void main() {
                int[] a = new int[5];
                for (int i = 0; i < a.length; i++) {
                    a[i] = i * i;
                }
                int sum = 0;
                for (int i = 0; i < a.length; i++) {
                    sum += a[i];
                }
                System.out.println(sum);
                String[] names = new String[2];
                names[0] = "maya";
                names[1] = "java";
                System.out.println(names[0].length() + names[1].length());
            }
        }
    "#);
    assert_eq!(out, "30\n8\n");
}

#[test]
fn exceptions() {
    let out = run(r#"
        class Main {
            static void main() {
                try {
                    throw new RuntimeException("boom");
                } catch (RuntimeException e) {
                    System.out.println("caught " + e.getMessage());
                }
                try {
                    int x = 1 / 0;
                    System.out.println(x);
                } catch (ArithmeticException e) {
                    System.out.println("div by zero");
                }
            }
        }
    "#);
    assert_eq!(out, "caught boom\ndiv by zero\n");
}

#[test]
fn statics_and_cross_class() {
    let out = run(r#"
        class Counter {
            static int count = 0;
            static int next() {
                count++;
                return count;
            }
        }
        class Main {
            static void main() {
                System.out.println(Counter.next());
                System.out.println(Counter.next());
                System.out.println(Counter.count);
            }
        }
    "#);
    assert_eq!(out, "1\n2\n2\n");
}

#[test]
fn type_errors_are_rejected() {
    let cases = [
        // bad operand types
        "class Main { static void main() { boolean b = true; int x = b - 1; } }",
        // unknown method
        "class Main { static void main() { String s = \"x\"; s.nope(); } }",
        // return mismatch
        "class Main { static int f() { return \"s\"; } static void main() { f(); } }",
        // unknown type
        "class Main { static void main() { Bogus b = null; } }",
        // break outside loop
        "class Main { static void main() { break; } }",
    ];
    for src in cases {
        let c = Compiler::new();
        assert!(
            c.compile_and_run("Main.maya", src, "Main").is_err(),
            "should reject: {src}"
        );
    }
}

#[test]
fn syntax_errors_are_rejected() {
    let cases = [
        "class Main { static void main() { int x = ; } }",
        "class Main { static void main() { if } }",
        "class Main { void }",
    ];
    for src in cases {
        let c = Compiler::new();
        assert!(
            c.compile_and_run("Main.maya", src, "Main").is_err(),
            "should reject: {src}"
        );
    }
}

#[test]
fn ternary_casts_and_unary() {
    let out = run(r#"
        class Main {
            static void main() {
                int a = -5;
                int b = a < 0 ? -a : a;
                System.out.println(b);
                double d = 7.5;
                int t = (int) d;
                System.out.println(t);
                System.out.println(!false);
                System.out.println(~0);
                long big = 1000000 * 1000L;
                System.out.println(big);
            }
        }
    "#);
    assert_eq!(out, "5\n7\ntrue\n-1\n1000000000\n");
}

/// Dropping a compiler frees it: nothing the interpreter keeps (the runtime
/// forcer, the frame provider, the template hook) holds `CompilerInner`
/// strongly.
#[test]
fn dropped_compiler_is_freed() {
    let c = Compiler::new();
    let inner = std::rc::Rc::downgrade(c.inner());
    let out = c
        .compile_and_run(
            "Main.maya",
            r#"
            class Main {
                static int twice(int n) { return n * 2; }
                static void main() { System.out.println(twice(21)); }
            }
            "#,
            "Main",
        )
        .unwrap();
    assert_eq!(out, "42\n");
    drop(c);
    assert!(inner.upgrade().is_none(), "the compiler outlived its last handle");
}
