package perfbench

import repro.core.PlanConfig

/** One workflow of a workload: an evaluation query, the plan it runs
  * under (SB = no optimization, S6 = all four) and how it is observed:
  * `rows` (observe, rows counted), `objects` (getObjects, collected) or
  * `snippets` (saveVideos, manifest written).
  */
final case class Step(query: String, plan: String, output: String) {
  def key: String = s"$query/$plan/$output"
  def config: PlanConfig = if (plan == "S6") PlanConfig.all else PlanConfig.baseline
}

/** A workload: the workflows one analyst submits one after another, in
  * round robin, over one world of `Workloads.Scenes` nuScenes-lite scenes
  * of 240 frames at 12 fps. `nominalS` is the workload's typical workflow wall
  * time in a fresh session on a 4-core machine; a run executes
  * seconds / nominalS workflows, and at least one of each step, so two
  * commits measured with the same run length do the same work.
  */
final case class Workload(name: String, steps: Vector[Step], nominalS: Double) {
  def workflows(seconds: Int): Int = math.max(steps.size, math.round(seconds / nominalS).toInt)
}

object Workloads {
  /** Enough scenes that the per-scene stages have work for every core. */
  val Scenes = 16

  /** Number of worlds pinned in references.tsv (world seeds 0 until
    * WorldSeeds). A run's seed picks the world seed modulo this number.
    */
  val WorldSeeds = 48

  def worldSeed(seed: BigInt): Long = seed.mod(WorldSeeds).toLong

  /** Q1 needs the tracker under both plans. SB sends every detection
    * through SortTracker; S6 prunes frames and object types first (EFS is
    * off for Q1's pedestrians). The video processor takes most of the
    * wall time.
    */
  val trackingMix: Workload = Workload("tracking-mix", Vector(
    Step("Q1", "SB", "rows"), Step("Q1", "S6", "rows")),
    nominalS = 18.0)

  /** Detection-only queries under S6: the tracker and EFS never run, so
    * the query engine takes most of the wall time (Q8's three-way frame
    * self-join most of all). Results leave through the Output Composer:
    * getObjects for Q5, saveVideos for Q8.
    */
  val detectionOnly: Workload = Workload("detection-only", Vector(
    Step("Q5", "S6", "objects"), Step("Q8", "S6", "snippets")),
    nominalS = 18.0)

  val all: Seq[Workload] = Seq(trackingMix, detectionOnly)

  def byName(name: String): Workload = all.find(_.name == name).getOrElse(
    throw new IllegalArgumentException(s"unknown workload $name; known: ${all.map(_.name).mkString(", ")}"))
}
