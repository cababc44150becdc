//! Seeded program generators. Every generated program comes with the
//! output the harness expects, computed here in Rust from the same
//! parameters — never taken from the compiler under test.

use crate::rng::Rng;
use std::fmt::Write as _;

/// The statement extension every generated project defines (the paper's
/// Figure 2 `foreach` over an `Enumeration`), plus one unused Mayan whose
/// name changes on an "extension edit": the token stream changes, so every
/// file that `use`s the extension is in the invalidation cone, while the
/// program's output stays the same.
fn extension_source(variant: u64) -> String {
    format!(
        r#"abstract Statement syntax(MethodName(Formal) lazy(BraceTree, BlockStmts));

Statement syntax
EForEach(Expression:java.util.Enumeration enumExp
         \. foreach(Formal var)
         lazy(BraceTree, BlockStmts) body)
{{
    StrictTypeName castType = StrictTypeName.make(var.getType());
    return new Statement {{
        for (java.util.Enumeration enumVar = $enumExp;
             enumVar.hasMoreElements(); ) {{
            $(DeclStmt.make(var))
            $(Reference.makeExpr(var.getLocation()))
                = ($castType) enumVar.nextElement();
            $body
        }}
    }};
}}

Statement syntax
UnusedLog{variant}(Expression:java.lang.String msg
          \. log(Formal var)
          lazy(BraceTree, BlockStmts) body)
{{
    return new Statement {{
        {{ System.out.println($msg); $body }}
    }};
}}
"#
    )
}

/// One generated class: `run(n)` folds a modular step function `n` times.
#[derive(Clone, PartialEq)]
pub struct Class {
    a: i64,
    b: i64,
    c: i64,
    m: i64,
    n: i64,
    fillers: usize,
}

impl Class {
    fn random(rng: &mut Rng, n: i64, fillers: usize) -> Class {
        Class {
            a: rng.range(2, 97),
            b: rng.range(0, 999),
            c: rng.range(0, 999),
            m: rng.range(1009, 10007),
            n,
            fillers,
        }
    }

    fn value(&self) -> i64 {
        let mut acc = self.c;
        for k in 0..self.n {
            acc = ((acc + k) * self.a + self.b) % self.m;
        }
        acc
    }

    fn source(&self, i: usize) -> String {
        let mut s = format!(
            "class C{i} {{\n    int base;\n    C{i}() {{ base = {b}; }}\n    \
             int step(int x) {{ return (x * {a} + base) % {m}; }}\n    \
             int run(int n) {{\n        int acc = {c};\n        \
             for (int k = 0; k < n; k++) {{\n            acc = step(acc + k);\n        }}\n        \
             return acc;\n    }}\n",
            a = self.a,
            b = self.b,
            c = self.c,
            m = self.m
        );
        // Never-called members: parsed lazily, so they weigh on the front
        // end and the caches without running.
        for f in 0..self.fillers {
            let _ = writeln!(
                s,
                "    int f{f}(int a) {{ int t = a * {} + base; if (t > {}) {{ t = t - a; }} return t; }}",
                f + 2,
                100 + f
            );
        }
        s.push_str("}\n");
        s
    }
}

/// One generated class whose method `use`s the extension.
#[derive(Clone, PartialEq)]
struct User {
    words: Vec<String>,
    c: i64,
    k: i64,
}

impl User {
    fn random(rng: &mut Rng) -> User {
        let n = rng.range(3, 7) as usize;
        let words = (0..n)
            .map(|_| {
                let len = rng.range(1, 9) as usize;
                (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect()
            })
            .collect();
        User {
            words,
            c: rng.range(0, 99),
            k: rng.range(1, 9),
        }
    }

    fn value(&self) -> i64 {
        self.c
            + self
                .words
                .iter()
                .map(|w| w.len() as i64 * self.k)
                .sum::<i64>()
    }

    fn source(&self, j: usize) -> String {
        let mut s = format!(
            "import java.util.*;\nclass U{j} {{\n    int sum() {{\n        Vector v = new Vector();\n"
        );
        for w in &self.words {
            let _ = writeln!(s, "        v.addElement(\"{w}\");");
        }
        let _ = write!(
            s,
            "        int n = {c};\n        use EForEach;\n        \
             v.elements().foreach(String s) {{\n            n = n + s.length() * {k};\n        }}\n        \
             return n;\n    }}\n}}\n",
            c = self.c,
            k = self.k
        );
        s
    }
}

/// Shape of a generated project.
#[derive(Clone, Copy)]
pub struct Shape {
    pub classes: usize,
    pub users: usize,
    pub fillers: usize,
    /// Iterations of each class's `run` loop (interpreter weight).
    pub loop_n: i64,
}

/// A generated multi-file project: an extension file, `classes` plain
/// class files, `users` files that `use` the extension, and a `Main`.
#[derive(Clone)]
pub struct Project {
    classes: Vec<Class>,
    users: Vec<User>,
    ext_variant: u64,
}

/// Which file of a project an edit touched.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum FileRef {
    Ext,
    Class(usize),
}

impl Project {
    pub fn generate(rng: &mut Rng, shape: Shape) -> Project {
        Project {
            classes: (0..shape.classes)
                .map(|_| {
                    let n = shape.loop_n + rng.range(0, 16);
                    Class::random(rng, n, shape.fillers)
                })
                .collect(),
            users: (0..shape.users).map(|_| User::random(rng)).collect(),
            ext_variant: 0,
        }
    }

    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    pub fn name_of(&self, f: FileRef) -> String {
        match f {
            FileRef::Ext => "ext.maya".to_owned(),
            FileRef::Class(i) => format!("c{i:02}.maya"),
        }
    }

    pub fn text_of(&self, f: FileRef) -> String {
        match f {
            FileRef::Ext => extension_source(self.ext_variant),
            FileRef::Class(i) => self.classes[i].source(i),
        }
    }

    /// Every file as `(name, text)`, in compile order.
    pub fn files(&self) -> Vec<(String, String)> {
        let mut v = vec![("ext.maya".to_owned(), extension_source(self.ext_variant))];
        for (i, c) in self.classes.iter().enumerate() {
            v.push((format!("c{i:02}.maya"), c.source(i)));
        }
        for (j, u) in self.users.iter().enumerate() {
            v.push((format!("u{j}.maya"), u.source(j)));
        }
        let mut main = String::from("class Main {\n    static void main() {\n");
        for (i, c) in self.classes.iter().enumerate() {
            let _ = writeln!(
                main,
                "        System.out.println(\"C{i}=\" + new C{i}().run({}));",
                c.n
            );
        }
        for j in 0..self.users.len() {
            let _ = writeln!(
                main,
                "        System.out.println(\"U{j}=\" + new U{j}().sum());"
            );
        }
        main.push_str("    }\n}\n");
        v.push(("main.maya".to_owned(), main));
        v
    }

    /// What `Main.main` prints, computed from the model.
    pub fn expected_stdout(&self) -> String {
        let mut s = String::new();
        for (i, c) in self.classes.iter().enumerate() {
            let _ = writeln!(s, "C{i}={}", c.value());
        }
        for (j, u) in self.users.iter().enumerate() {
            let _ = writeln!(s, "U{j}={}", u.value());
        }
        s
    }

    /// Rewrites class `i`'s method bodies with new constants (new content,
    /// new output).
    pub fn edit_class(&mut self, rng: &mut Rng, i: usize) -> FileRef {
        let old = &self.classes[i];
        let mut fresh = Class::random(rng, old.n, old.fillers);
        while fresh == *old {
            fresh = Class::random(rng, old.n, old.fillers);
        }
        self.classes[i] = fresh;
        FileRef::Class(i)
    }

    /// Class `i`'s current version (for reverting to it later).
    pub fn class(&self, i: usize) -> Class {
        self.classes[i].clone()
    }

    /// Puts class `i` back to an earlier version.
    pub fn set_class(&mut self, i: usize, c: Class) -> FileRef {
        self.classes[i] = c;
        FileRef::Class(i)
    }

    /// Changes the extension file's tokens without changing its meaning.
    pub fn edit_ext(&mut self, variant: u64) -> FileRef {
        self.ext_variant = variant;
        FileRef::Ext
    }

    pub fn ext_variant(&self) -> u64 {
        self.ext_variant
    }
}

// ---- interpreter kernels -----------------------------------------------------

/// A single-file program run by `interp_hot`, with its expected output.
pub struct Kernel {
    pub name: String,
    pub source: String,
    pub expected: String,
}

/// Java `int` arithmetic helpers (32-bit two's complement, wrapping).
fn mix(a: i32, b: i32, k1: i32, k2: i32) -> i32 {
    let mut x = a.wrapping_mul(k1).wrapping_add(b);
    x ^= x >> 7;
    x = x.wrapping_mul(k2).wrapping_add(b.wrapping_shl(3));
    x ^ ((x as u32) >> 11) as i32
}

/// The `interp_hot_arith` kernel with seeded loop bounds and constants.
pub fn arith_kernel(outer: i32, inner: i32, k1: i32, k2: i32, div: i32) -> Kernel {
    let source = format!(
        r#"class Main {{
    static int mix(int a, int b) {{
        int x = a * {k1} + b;
        x = x ^ (x >> 7);
        x = x * {k2} + (b << 3);
        return x ^ (x >>> 11);
    }}

    static void main() {{
        long total = 0L;
        int check = 0;
        for (int i = 0; i < {outer}; i++) {{
            int inner = 0;
            for (int j = 0; j < {inner}; j++) {{
                inner += mix(i, j);
                if (j % 5 == 0) {{
                    inner -= mix(j, i) / {div};
                }}
            }}
            total += inner;
            check = mix(check, inner);
        }}
        System.out.println("total=" + total);
        System.out.println("check=" + check);
    }}
}}
"#
    );
    let mut total: i64 = 0;
    let mut check: i32 = 0;
    for i in 0..outer {
        let mut acc: i32 = 0;
        for j in 0..inner {
            acc = acc.wrapping_add(mix(i, j, k1, k2));
            if j % 5 == 0 {
                acc = acc.wrapping_sub(mix(j, i, k1, k2).wrapping_div(div));
            }
        }
        total += acc as i64;
        check = mix(check, acc, k1, k2);
    }
    Kernel {
        name: format!("arith_{outer}x{inner}"),
        source,
        expected: format!("total={total}\ncheck={check}\n"),
    }
}

/// The `interp_hot_calls` kernel (virtual calls down a three-class
/// hierarchy) with seeded sizes.
pub fn calls_kernel(rounds: i32, reps: i32, side: i32, h: i32) -> Kernel {
    let source = format!(
        r#"class Shape {{
    int id;
    int area() {{ return 0; }}
    int weighted() {{ return area() * 2 + id; }}
}}
class Square extends Shape {{
    int side;
    int area() {{ return side * side; }}
}}
class Rect extends Square {{
    int h;
    int area() {{ return side * h; }}
    int weighted() {{ return area() + id; }}
}}
class Main {{
    static int sum(Shape s, int reps) {{
        int acc = 0;
        for (int i = 0; i < reps; i++) {{
            acc += s.weighted();
        }}
        return acc;
    }}

    static void main() {{
        Square sq = new Square();
        sq.id = 1;
        sq.side = {side};
        Rect r = new Rect();
        r.id = 2;
        r.side = 5;
        r.h = {h};
        int total = 0;
        for (int round = 0; round < {rounds}; round++) {{
            total += sum(sq, {reps});
            total += sum(r, {reps});
            Shape s = sq;
            if (round % 2 == 0) {{
                s = r;
            }}
            total += s.area();
        }}
        System.out.println("total=" + total);
        System.out.println("square=" + sq.weighted() + " rect=" + r.weighted());
    }}
}}
"#
    );
    let sq_area = side.wrapping_mul(side);
    let sq_w = sq_area.wrapping_mul(2).wrapping_add(1);
    let r_area = 5i32.wrapping_mul(h);
    let r_w = r_area.wrapping_add(2);
    let mut total: i32 = 0;
    for round in 0..rounds {
        total = total.wrapping_add(sq_w.wrapping_mul(reps));
        total = total.wrapping_add(r_w.wrapping_mul(reps));
        total = total.wrapping_add(if round % 2 == 0 { r_area } else { sq_area });
    }
    Kernel {
        name: format!("calls_{rounds}x{reps}"),
        source,
        expected: format!("total={total}\nsquare={sq_w} rect={r_w}\n"),
    }
}

/// The `interp_hot_strings` kernel (string building through a helper
/// class) with seeded sizes.
pub fn strings_kernel(iters: i32, wa: i32, wb: i32, every: i32) -> Kernel {
    let source = format!(
        r#"class Row {{
    String prefix;
    int width;
    Row(String prefix, int width) {{
        this.prefix = prefix;
        this.width = width;
    }}
    String render(int n) {{
        String s = prefix;
        for (int i = 0; i < width; i++) {{
            s = s + ((n + i) % 10);
        }}
        return s;
    }}
}}
class Main {{
    static void main() {{
        Row a = new Row("a:", {wa});
        Row b = new Row("b:", {wb});
        int letters = 0;
        String last = "";
        for (int i = 0; i < {iters}; i++) {{
            String ra = a.render(i);
            String rb = b.render(i * 3);
            letters += ra.length() + rb.length();
            if (i % {every} == 0) {{
                last = ra + "|" + rb;
            }}
        }}
        System.out.println("letters=" + letters);
        System.out.println("last=" + last);
    }}
}}
"#
    );
    let render = |prefix: &str, width: i32, n: i32| {
        let mut s = prefix.to_owned();
        for i in 0..width {
            let _ = write!(s, "{}", (n + i) % 10);
        }
        s
    };
    let mut letters = 0i64;
    let mut last = String::new();
    for i in 0..iters {
        let ra = render("a:", wa, i);
        let rb = render("b:", wb, i * 3);
        letters += (ra.len() + rb.len()) as i64;
        if i % every == 0 {
            last = format!("{ra}|{rb}");
        }
    }
    Kernel {
        name: format!("strings_{iters}"),
        source,
        expected: format!("letters={letters}\nlast={last}\n"),
    }
}

/// A hot loop around `try`/`catch`: every `lim`-th call throws.
pub fn trycatch_kernel(n: i32, lim: i32, k: i32) -> Kernel {
    let source = format!(
        r#"class Main {{
    static int check(int v) {{
        if (v % {lim} == 0) {{
            throw new RuntimeException("m" + v);
        }}
        return v * {k} % 1009;
    }}

    static void main() {{
        int ok = 0;
        int caught = 0;
        int len = 0;
        for (int i = 1; i <= {n}; i++) {{
            try {{
                ok = (ok + check(i)) % 1000003;
            }} catch (RuntimeException e) {{
                caught++;
                len += e.getMessage().length();
            }}
        }}
        System.out.println("ok=" + ok + " caught=" + caught + " len=" + len);
    }}
}}
"#
    );
    let (mut ok, mut caught, mut len) = (0i64, 0i64, 0i64);
    for i in 1..=n as i64 {
        if i % lim as i64 == 0 {
            caught += 1;
            len += format!("m{i}").len() as i64;
        } else {
            ok = (ok + i * k as i64 % 1009) % 1_000_003;
        }
    }
    Kernel {
        name: format!("trycatch_{n}"),
        source,
        expected: format!("ok={ok} caught={caught} len={len}\n"),
    }
}

/// Megamorphic call sites: one loop calls `f` on six receiver classes,
/// more than a polymorphic inline cache holds.
pub fn poly_kernel(rounds: i32, width: i32, seed_mul: &[i32; 6]) -> Kernel {
    let mut classes = String::from("class B {\n    int f(int x) { return x + 1; }\n}\n");
    for (c, m) in seed_mul.iter().enumerate() {
        let _ = writeln!(
            classes,
            "class K{c} extends B {{\n    int f(int x) {{ return x * {m} % 1013 + {c}; }}\n}}"
        );
    }
    let mut make = String::new();
    for c in 0..6 {
        let _ = writeln!(
            make,
            "            if (i % 6 == {c}) {{ objs[i] = new K{c}(); }}"
        );
    }
    let source = format!(
        r#"{classes}class Main {{
    static void main() {{
        B[] objs = new B[{width}];
        for (int i = 0; i < {width}; i++) {{
{make}        }}
        int acc = 0;
        for (int r = 0; r < {rounds}; r++) {{
            for (int i = 0; i < {width}; i++) {{
                acc = (acc + objs[i].f(acc + i)) % 1000003;
            }}
        }}
        System.out.println("acc=" + acc);
    }}
}}
"#
    );
    let mut acc: i64 = 0;
    for _ in 0..rounds {
        for i in 0..width as i64 {
            let c = (i % 6) as usize;
            let x = acc + i;
            let f = x * seed_mul[c] as i64 % 1013 + c as i64;
            acc = (acc + f) % 1_000_003;
        }
    }
    Kernel {
        name: format!("poly_{rounds}x{width}"),
        source,
        expected: format!("acc={acc}\n"),
    }
}
