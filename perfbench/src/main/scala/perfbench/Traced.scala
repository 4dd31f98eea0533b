package perfbench

import java.nio.file.Path

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** The traced run: per-layer metrics of one pass over a workload's
  * workflows, the tracing overhead, and a single-core reference.
  *
  *  1. local[*]: every workflow of the workload once, layer by layer with
  *     spans and job groups, in the order an untraced run meets them.
  *     The per-layer metrics come from this pass.
  *  2. local[*] again, JIT now warm: the first workflow through
  *     observe(), traced, and through observe() again; trace.overhead_pct
  *     compares the traced run with the mean of the two around it, which
  *     cancels warm-up that continues across the three.
  *  3. local[1], on a fresh session and world in the same (warm) JVM: the
  *     same workflow traced, against its warm local[*] run of step 2.
  *
  * One workflow in steps 2 and 3 keeps a traced run near 90 s, which is
  * what the benchmark's run budget allows.
  *
  * Every outcome, traced or not, must equal the pinned reference.
  */
object Traced {

  /** Stop starting workflows past this many seconds since launch, so a
    * traced run ends within the benchmark's time limit on a slow machine.
    */
  val CapS = 150.0

  private final class Pass(spark: SparkSession, seed: Long, dir: Path, t0Nanos: Long) {
    val (ds, worldMs) = Main.buildWorld(spark, seed)
    val runner   = new Runner(spark, ds, dir)
    val tracer   = new Tracer(t0Nanos)
    val listener = new GroupListener(spark.sparkContext)
    spark.sparkContext.addSparkListener(listener)

    def spans(cores: String): Seq[mutable.LinkedHashMap[String, Any]] = tracer.spans.map { s =>
      mutable.LinkedHashMap("id" -> s.id, "parent" -> s.parent, "workflow" -> s.workflow, "name" -> s.name,
        "cores" -> cores, "start_ms" -> s.startMs, "end_ms" -> s.endMs, "self_ms" -> tracer.selfMs(s))
    }
  }

  def run(o: Main.Opts, wl: Workload, ref: Map[Step, Reference], dir: Path): Int = {
    val t0      = System.nanoTime()
    def overCap = (System.currentTimeMillis() - o.t0Ms) / 1000.0 > CapS
    var attempted = 0
    var failed    = 0
    def attempt[A](step: Step, how: String)(body: => (Outcome, A)): Option[A] =
      if (overCap) None
      else {
        attempted += 1
        try {
          val (out, a) = body
          if (!Main.check(step, out, ref(step), how)) failed += 1
          Some(a)
        } catch {
          case e: Exception =>
            failed += 1
            System.err.println(s"FAILED ${step.key} ($how): $e")
            None
        }
      }

    var spark = Main.session("local[*]", dir)
    val p4    = new Pass(spark, o.seed, dir, t0)
    def traced(p: Pass, step: Step, wf: Int, how: String) =
      attempt(step, how)(p.runner.traced(step, wf, p.tracer, p.listener))

    // 1.
    val c1    = CpuTicks.now()
    val recs  = wl.steps.zipWithIndex.flatMap { case (s, i) => traced(p4, s, i, "traced") }
    val steal = c1.stealShare(CpuTicks.now())
    // 2.
    val first  = wl.steps.head
    def observed = attempt(first, "observe")(p4.runner.observe(first))
    val before = observed
    val warm   = traced(p4, first, 100, "traced, warm").toSeq
    val after  = observed
    val untracedMs = (before ++ after).map(_.ms).sum / math.max(1, (before ++ after).size)
    val spans4 = p4.spans("local[*]")
    spark.stop()
    SparkSession.clearActiveSession(); SparkSession.clearDefaultSession()
    // 3.
    spark = Main.session("local[1]", dir)
    val p1    = new Pass(spark, o.seed, dir, t0)
    val recs1 = warm.flatMap(w => traced(p1, w.step, 200, "traced, 1 core"))
    spark.stop()

    val metrics = LayerMetrics(recs, warm, recs1, p4.worldMs, steal,
                               untracedMs = untracedMs, tracedMs = warm.map(_.wallMs).sum)
    LayerMetrics.printTables(wl, recs, warm, recs1)
    val file = dir.resolve(s"trace-${wl.name}-seed${o.seed}.json")
    Main.writeFile(file, Json.render(mutable.LinkedHashMap(
      "workload" -> wl.name, "seed" -> o.seed,
      "spans" -> (spans4 ++ p1.spans("local[1]")),
      "workflows" -> recs.map(LayerMetrics.row),
      "workflows_warm" -> warm.map(LayerMetrics.row),
      "workflows_1core" -> recs1.map(LayerMetrics.row),
      "metrics" -> mutable.LinkedHashMap(metrics.map { case (n, v, u) =>
        n -> mutable.LinkedHashMap("value" -> v, "unit" -> u) }: _*))))
    println(s"trace written to $file")
    Main.report(failed == 0, attempted, failed, metrics)
    0
  }
}
