package repro.geom

/** 2D vector in the world's z=0 ground plane (metres). */
final case class Vec2(x: Double, y: Double) {
  def +(o: Vec2): Vec2       = Vec2(x + o.x, y + o.y)
  def -(o: Vec2): Vec2       = Vec2(x - o.x, y - o.y)
  def *(s: Double): Vec2     = Vec2(x * s, y * s)
  def dot(o: Vec2): Double   = x * o.x + y * o.y
  def cross(o: Vec2): Double = x * o.y - y * o.x
  def norm: Double           = math.sqrt(x * x + y * y)
  def dist(o: Vec2): Double  = (this - o).norm
  def normalized: Vec2       = { val n = norm; if (n < 1e-12) Vec2(0, 0) else Vec2(x / n, y / n) }
  /** Perpendicular (rotated +90 degrees CCW). */
  def perp: Vec2             = Vec2(-y, x)
}

/** 3D vector in the world coordinate system (metres, z-up). */
final case class Vec3(x: Double, y: Double, z: Double) {
  def +(o: Vec3): Vec3      = Vec3(x + o.x, y + o.y, z + o.z)
  def -(o: Vec3): Vec3      = Vec3(x - o.x, y - o.y, z - o.z)
  def *(s: Double): Vec3    = Vec3(x * s, y * s, z * s)
  def dot(o: Vec3): Double  = x * o.x + y * o.y + z * o.z
  def cross(o: Vec3): Vec3  = Vec3(y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x)
  def norm: Double          = math.sqrt(this dot this)
  def normalized: Vec3      = { val n = norm; if (n < 1e-12) Vec3(0, 0, 0) else this * (1.0 / n) }
  def xy: Vec2              = Vec2(x, y)
}

/** Heading arithmetic. Headings are degrees CCW from +x, canonical in [0, 360). */
object Heading {
  /** Spark's `pmod(deg, 360)`, so the scene pass and the engine's SQL
    * normalise alike. The second `%` maps an `m + 360` that rounds up to
    * 360 (for `m` just below 0) to 0.
    */
  def canon(deg: Double): Double = {
    val m = deg % 360.0
    if (m < 0) (m + 360.0) % 360.0 else m
  }

  /** Absolute angular difference in [0, 180]. */
  def diff(a: Double, b: Double): Double = {
    val d = math.abs(canon(a) - canon(b))
    if (d > 180.0) 360.0 - d else d
  }

  /** Signed smallest rotation from `a` to `b`, in (-180, 180]. CCW positive. */
  def signedDelta(a: Double, b: Double): Double = {
    var d = canon(b) - canon(a)
    if (d > 180.0) d -= 360.0
    if (d <= -180.0) d += 360.0
    d
  }

  def toUnit(deg: Double): Vec2 = {
    val r = math.toRadians(deg)
    Vec2(math.cos(r), math.sin(r))
  }

  def ofVec(v: Vec2): Double = canon(math.toDegrees(math.atan2(v.y, v.x)))
}

/** Deterministic hash-based pseudo-randomness (splitmix64).
  *
  * Every stochastic choice in the synthetic world/detector is a pure
  * function of ids, so two video-processing plans that visit different
  * subsets of frames still observe byte-identical data — accuracy deltas
  * in the ablation measure the optimizations, never generator noise.
  */
object Rng {
  def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def hashLong(parts: Long*): Long = {
    var h = 0x51_7c_c1_b7_27_22_0a_95L
    parts.foreach { p => h = mix(h ^ p) }
    h
  }

  /** Uniform double in [0, 1). */
  def hash01(parts: Long*): Double =
    (hashLong(parts: _*) >>> 11).toDouble / (1L << 53).toDouble

  /** Uniform double in [lo, hi). */
  def hashIn(lo: Double, hi: Double, parts: Long*): Double =
    lo + hash01(parts: _*) * (hi - lo)

  /** Uniform int in [0, n). */
  def hashInt(n: Int, parts: Long*): Int =
    ((hashLong(parts: _*) >>> 33) % n).toInt
}
